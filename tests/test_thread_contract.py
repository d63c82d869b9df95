"""The ``repro.perf`` thread contract: one writer thread, proved not assumed.

Registries and tracers take no lock, which is only sound while every
write comes from one thread.  The only threads in ``src/repro`` are the
pacing workers of ``repro.runtime.engine``; these tests pin that they
cannot reach a registry (static) and do not (dynamic).
"""

from __future__ import annotations

import ast
import functools
import threading
from pathlib import Path

import pytest

from repro.core.assignment import sparcle_assign
from repro.core.network import star_network
from repro.core.taskgraph import linear_task_graph
from repro.perf.counters import PerfRegistry
from repro.perf.tracing import Tracer, use_tracer
from repro.runtime import LocalRuntime

RUNTIME = Path(__file__).resolve().parents[1] / "src" / "repro" / "runtime"


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports (relative resolved)."""
    package = ["repro", "runtime"]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *(node.module or "").split(".")]).strip(".")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_runtime_never_imports_perf():
    files = sorted(RUNTIME.glob("*.py"))
    assert files
    for path in files:
        offending = sorted(
            name for name in _imported_modules(path)
            if name == "repro.perf" or name.startswith("repro.perf.")
        )
        assert not offending, f"{path.name} imports {offending}"


def test_relative_imports_are_resolved(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from ..perf import counters\nfrom .. import perf\n")
    assert {"repro.perf", "repro.perf.counters"} <= _imported_modules(probe)


WRITES = {
    PerfRegistry: ("incr", "accumulate", "set_gauge", "observe", "reset"),
    Tracer: ("event", "span", "clear"),
}


@pytest.fixture
def writer_threads(monkeypatch):
    """Thread ids of every registry/tracer write while the fixture is live."""
    seen: list[int] = []
    for cls, methods in WRITES.items():
        for name in methods:
            original = getattr(cls, name)

            @functools.wraps(original)
            def wrapper(*args, __original=original, **kwargs):
                seen.append(threading.get_ident())
                return __original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)
    return seen


def test_runtime_writes_only_from_the_calling_thread(writer_threads):
    graph = linear_task_graph(2, cpu_per_ct=100.0, megabits_per_tt=2.0)
    graph = graph.with_pins({"source": "ncp1", "sink": "ncp2"})
    net = star_network(3, hub_cpu=1000.0, leaf_cpu=500.0, link_bandwidth=20.0)
    with use_tracer(Tracer()) as tracer:
        tracer.enable()
        result = sparcle_assign(graph, net)
        runtime = LocalRuntime(
            net, result.placement,
            {"ct1": lambda i: i["source"] * 2, "ct2": lambda i: i["ct1"] + 1},
            time_scale=0.001,
        )
        outcome = runtime.process(list(range(6)), rate=result.rate * 0.8)
    assert outcome.delivered == 6
    assert writer_threads, "the instrumented run recorded nothing"
    assert set(writer_threads) == {threading.get_ident()}
