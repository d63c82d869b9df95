"""The serving path's import footprint, checked in a fresh interpreter.

``sparcle serve --recover`` is unavailable for as long as it takes to
start, and most of that is imports: ``scipy.optimize`` alone costs about
as much as everything else ``repro.cli`` needs, and networkx half as much.
Nothing on the wire path solves Problem (4), runs a baseline's router,
runs an experiment, or emulates a testbed, so those packages must stay
off it.  Deterministic — module names, not timings.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

BANNED = ("scipy", "networkx", "matplotlib", "repro.experiments",
          "repro.emulator", "repro.simulator")


def loaded():
    return sorted(
        name for name in sys.modules
        if name in BANNED or name.startswith(tuple(b + "." for b in BANNED))
    )


import repro.cli
assert not loaded(), ("import repro.cli", loaded())
import repro.service.server
assert not loaded(), ("import repro.service.server", loaded())

# The function-local scipy import still resolves when a solver runs.
from repro.core.allocation import BEApp, solve_proportional_fairness
from repro.core.network import NCP, Network
from repro.core.placement import CapacityView, Placement
from repro.core.taskgraph import CPU, ComputationTask, TaskGraph

network = Network("n", [NCP("ncp", {CPU: 1200.0})], [])
apps = [
    BEApp(app_id, priority, (Placement(
        TaskGraph(app_id, [ComputationTask("w", {CPU: 100.0})], []),
        {"w": "ncp"}, {},
    ),))
    for app_id, priority in (("a", 1.0), ("b", 2.0))
]
result = solve_proportional_fairness(
    apps, CapacityView(network), method="slsqp"
)
assert abs(result.app_rates["a"] - 4.0) < 1e-3, result.app_rates
assert abs(result.app_rates["b"] - 8.0) < 1e-3, result.app_rates
assert "scipy.optimize" in sys.modules

# So does the function-local networkx import when a baseline router runs.
from repro.core.network import Link
from repro.core.routing import hop_shortest_path

assert "networkx" not in sys.modules
line = Network("line", [NCP("a"), NCP("b"), NCP("c")],
               [Link("ab", "a", "b", 4.0), Link("bc", "b", "c", 2.5)])
route = hop_shortest_path(line, "a", "c")
assert route.links == ("ab", "bc") and route.bottleneck == 2.5, route
assert "networkx" in sys.modules
print("ok")
"""


def test_serve_path_imports_no_scipy_experiments_emulator_or_simulator():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
