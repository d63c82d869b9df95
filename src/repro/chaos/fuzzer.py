"""Scenario fuzzer: random-but-valid SPARCLE worlds, lint-proven.

The generate -> validate -> admit pipeline of the chaos harness starts
here.  :func:`fuzz_world` draws a random network topology (star, chain,
clique or geometric-IoT) and a random application graph (linear, diamond
or layered DAG), serializes them to the scenario-JSON document format,
and runs the document through :func:`repro.devtools.lint_scenario_dict`
— the PR-5 semantic rules (SCN001-SCN004) are the *validity oracle*.  A
clean lint report is a machine-checked proof that the generated world is
well-formed before a single request touches the scheduler; a violation
means the fuzzer itself is buggy and raises :class:`ChaosError` rather
than feeding garbage downstream.

Per-request fuzzing (:func:`fuzz_request`) follows the same contract:
every GR/BE request's task graph is re-serialized against the world's
network and lint-checked before it is handed to the admission gateway.

All randomness flows through one :mod:`numpy` generator (the repo-wide
``repro.utils.rng`` discipline), so a seed reproduces the exact same
world and request stream bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.network import (
    Network,
    fully_connected_network,
    linear_network,
    star_network,
)
from repro.core.scheduler import BERequest, GRRequest
from repro.core.taskgraph import (
    TaskGraph,
    diamond_task_graph,
    linear_task_graph,
)
from repro.devtools.scenario_lint import lint_scenario_dict
from repro.core.scenario import ScenarioSpec, scenario_from_dict, scenario_to_dict
from repro.exceptions import ChaosError
from repro.utils.rng import ensure_rng
from repro.workloads.generators import (
    random_geometric_network,
    random_layered_task_graph,
)

#: Topology families the network fuzzer draws from.
NETWORK_FAMILIES = ("star", "linear", "full", "geometric")

#: Application-graph shapes the graph fuzzer draws from.
GRAPH_SHAPES = ("linear", "diamond", "layered")


@dataclass(frozen=True)
class FuzzProfile:
    """Bounds on generated worlds; the defaults match ``sparcle soak``.

    ``quick()`` returns the downsized profile the CI smoke job uses.
    """

    min_ncps: int = 4
    max_ncps: int = 12
    cpu_range: tuple[float, float] = (2000.0, 30000.0)
    bandwidth_range: tuple[float, float] = (10.0, 80.0)
    failure_probability_range: tuple[float, float] = (0.0, 0.15)
    max_graph_depth: int = 3
    max_graph_width: int = 3
    gr_fraction: float = 0.6
    min_rate_range: tuple[float, float] = (0.02, 0.3)
    availability_range: tuple[float, float] = (0.3, 0.9)
    max_paths: int = 3
    #: How often fuzz_world retries before declaring the fuzzer broken.
    lint_attempts: int = 5

    @classmethod
    def quick(cls) -> "FuzzProfile":
        return cls(min_ncps=4, max_ncps=8, max_graph_depth=2, max_graph_width=2)


@dataclass(frozen=True)
class FuzzedWorld:
    """A lint-clean fuzzed scenario: parsed spec plus its JSON document."""

    spec: ScenarioSpec
    doc: dict[str, Any]
    family: str
    shape: str


def fuzz_network(
    rng: int | np.random.Generator | None,
    profile: FuzzProfile | None = None,
    *,
    name: str = "fuzz-net",
) -> tuple[Network, str]:
    """A random connected network from one of the four topology families."""
    generator = ensure_rng(rng)
    profile = profile or FuzzProfile()
    family = str(generator.choice(NETWORK_FAMILIES))
    n_ncps = int(generator.integers(profile.min_ncps, profile.max_ncps + 1))
    link_pf = float(generator.uniform(*profile.failure_probability_range))
    # Only links fail: the paper's Fig.-4 failure model.
    ncp_pf = 0.0

    def cpus(count: int) -> list[float]:
        return [float(generator.uniform(*profile.cpu_range)) for _ in range(count)]

    def bandwidths(count: int) -> list[float]:
        return [
            float(generator.uniform(*profile.bandwidth_range)) for _ in range(count)
        ]

    if family == "star":
        leaves = max(n_ncps - 1, 3)
        network = star_network(
            leaves,
            name=name,
            hub_cpu=float(generator.uniform(*profile.cpu_range)) * 2.0,
            leaf_cpu=cpus(leaves),
            link_bandwidth=bandwidths(leaves),
            link_failure_probability=link_pf,
            ncp_failure_probability=ncp_pf,
        )
    elif family == "linear":
        network = linear_network(
            n_ncps,
            name=name,
            cpu=cpus(n_ncps),
            link_bandwidth=bandwidths(n_ncps - 1),
            link_failure_probability=link_pf,
            ncp_failure_probability=ncp_pf,
        )
    elif family == "full":
        n_ncps = min(n_ncps, 8)  # keep the clique's link count bounded
        network = fully_connected_network(
            n_ncps,
            name=name,
            cpu=cpus(n_ncps),
            link_bandwidth=bandwidths(n_ncps * (n_ncps - 1) // 2),
            link_failure_probability=link_pf,
            ncp_failure_probability=ncp_pf,
        )
    else:  # geometric
        network = random_geometric_network(
            generator,
            name=name,
            n_ncps=n_ncps,
            radius=float(generator.uniform(0.35, 0.6)),
            cpu_range=profile.cpu_range,
            bandwidth_at_zero=profile.bandwidth_range[1],
            link_failure_probability=link_pf,
        )
    return network, family


def fuzz_graph(
    rng: int | np.random.Generator | None,
    network: Network,
    profile: FuzzProfile | None = None,
    *,
    name: str = "fuzz-app",
) -> tuple[TaskGraph, str]:
    """A random pinned task graph whose endpoints live on ``network``."""
    generator = ensure_rng(rng)
    profile = profile or FuzzProfile()
    shape = str(generator.choice(GRAPH_SHAPES))
    ncp_names = sorted(network.ncp_names)
    src = str(generator.choice(ncp_names))
    dst = str(generator.choice(ncp_names))

    def cpu() -> float:
        # Per-unit CT demand: small relative to node capacity so a world
        # usually admits several applications before saturating.
        low, high = profile.cpu_range
        return float(generator.uniform(low, high)) / 50.0

    def megabits() -> float:
        return float(generator.uniform(0.5, 6.0))

    if shape == "linear":
        n_compute = int(generator.integers(2, 5))
        graph = linear_task_graph(
            n_compute,
            name=name,
            cpu_per_ct=[cpu() for _ in range(n_compute)],
            megabits_per_tt=[megabits() for _ in range(n_compute + 1)],
        ).with_pins({"source": src, "sink": dst}, name=name)
    elif shape == "diamond":
        graph = diamond_task_graph(
            name=name, cpu_per_ct=cpu(), megabits_per_tt=megabits()
        ).with_pins({"ct1": src, "ct8": dst}, name=name)
    else:  # layered
        graph = random_layered_task_graph(
            generator,
            name=name,
            depth=int(generator.integers(1, profile.max_graph_depth + 1)),
            width=int(generator.integers(1, profile.max_graph_width + 1)),
            edge_probability=float(generator.uniform(0.2, 0.7)),
            cpu_range=(profile.cpu_range[0] / 50.0, profile.cpu_range[1] / 50.0),
            tt_range=(0.5, 6.0),
        ).with_pins({"source": src, "sink": dst}, name=name)
    return graph, shape


def lint_or_raise(doc: dict[str, Any], *, context: str) -> None:
    """Run the scenario oracle; a dirty report is a fuzzer bug."""
    violations = lint_scenario_dict(doc, source=context)
    if violations:
        raise ChaosError(
            f"fuzzer produced an invalid world for {context}: "
            + "; ".join(f"{v.rule_id}: {v.message}" for v in violations)
        )


def fuzz_world(
    rng: int | np.random.Generator | None,
    profile: FuzzProfile | None = None,
    *,
    name: str = "chaos-world",
) -> FuzzedWorld:
    """Generate a scenario document and prove it valid with the oracle.

    Generation is valid-by-construction, so the lint pass should succeed
    on the first attempt; the retry loop exists to localize a fuzzer bug
    (``ChaosError`` after ``profile.lint_attempts`` dirty documents)
    instead of letting one propagate into the scheduler.
    """
    generator = ensure_rng(rng)
    profile = profile or FuzzProfile()
    last_error: ChaosError | None = None
    for attempt in range(profile.lint_attempts):
        network, family = fuzz_network(generator, profile, name=f"{name}-net")
        graph, shape = fuzz_graph(generator, network, profile, name=f"{name}-app")
        doc = scenario_to_dict(name, network, graph)
        try:
            lint_or_raise(doc, context=f"{name} (attempt {attempt})")
        except ChaosError as error:
            last_error = error
            continue
        return FuzzedWorld(
            spec=scenario_from_dict(doc), doc=doc, family=family, shape=shape
        )
    raise last_error if last_error is not None else ChaosError(
        "fuzz_world exhausted its attempts without generating a world"
    )


def fuzz_request(
    rng: int | np.random.Generator | None,
    network: Network,
    app_id: str,
    profile: FuzzProfile | None = None,
) -> GRRequest | BERequest:
    """One random GR or BE admission request, lint-checked against the world.

    The request's task graph is serialized with the network into a
    scenario document and passed through the oracle before the request is
    returned — the same generate -> validate -> admit contract the world
    itself satisfies.
    """
    generator = ensure_rng(rng)
    profile = profile or FuzzProfile()
    graph, _ = fuzz_graph(generator, network, profile, name=app_id)
    lint_or_raise(scenario_to_dict(app_id, network, graph), context=app_id)
    max_paths = int(generator.integers(1, profile.max_paths + 1))
    if generator.uniform(0.0, 1.0) < profile.gr_fraction:
        if generator.uniform(0.0, 1.0) < 0.5:
            availability = 0.0  # rate-only guarantee
        else:
            availability = float(generator.uniform(*profile.availability_range))
        return GRRequest(
            app_id,
            graph,
            min_rate=float(generator.uniform(*profile.min_rate_range)),
            min_rate_availability=availability,
            max_paths=max_paths,
        )
    availability_req = (
        None
        if generator.uniform(0.0, 1.0) < 0.5
        else float(generator.uniform(0.2, 0.8))
    )
    return BERequest(
        app_id,
        graph,
        priority=float(generator.choice([1.0, 2.0, 4.0])),
        availability=availability_req,
        max_paths=max_paths,
    )
