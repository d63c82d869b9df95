"""Ablation A4 — scheduler runtime vs problem size (Theorem 2).

Algorithm 2 is O(|N|^3 |C|^3) worst case; these micro-benchmarks time a
single assignment across growing networks and task graphs so regressions in
the inner loops (gamma evaluation, widest-path memoization) show up.
Unlike the figure reproductions these use real repeated timing rounds.

The scenario builders are module-level and keyed by a stable ``bench id``
(:data:`SCENARIOS`) so ``benchmarks/export_bench.py`` can time the exact
same instances against the straight-line reference implementation
(``tests/assignment_oracle.py``), and so ``--benchmark-json`` output
(tagged with ``bench_id`` by ``conftest.py``) can be merged into
``BENCH_assignment.json``.
"""

from __future__ import annotations

import pytest

from repro.core.assignment import sparcle_assign
from repro.core.network import Network, star_network
from repro.core.taskgraph import TaskGraph, diamond_chain_task_graph, linear_task_graph
from repro.workloads.scenarios import GraphKind, TopologyKind, random_network, random_task_graph


def star_case(n_ncps: int) -> tuple[TaskGraph, Network]:
    """Random diamond app on a star network of ``n_ncps`` NCPs."""
    network = random_network(TopologyKind.STAR, 200 + n_ncps, n_ncps=n_ncps)
    graph = random_task_graph(GraphKind.DIAMOND, 300 + n_ncps)
    graph = graph.with_pins({"ct1": network.ncp_names[1], "ct8": network.ncp_names[2]})
    return graph, network


def linear_graph_case(n_cts: int) -> tuple[TaskGraph, Network]:
    """Linear app of ``n_cts`` compute CTs on a fixed 9-NCP star."""
    network = star_network(9, hub_cpu=8000.0, leaf_cpu=4000.0, link_bandwidth=40.0)
    graph = linear_task_graph(
        n_cts, cpu_per_ct=1000.0, megabits_per_tt=2.0
    ).with_pins({"source": "ncp1", "sink": "ncp2"})
    return graph, network


def full_connectivity_case() -> tuple[TaskGraph, Network]:
    """Random diamond app on a fully connected 12-NCP network."""
    network = random_network(TopologyKind.FULL, 205, n_ncps=12)
    graph = random_task_graph(GraphKind.DIAMOND, 305)
    graph = graph.with_pins({"ct1": network.ncp_names[0], "ct8": network.ncp_names[1]})
    return graph, network


def dense_deep_case() -> tuple[TaskGraph, Network]:
    """24 fully connected NCPs (276 links) x a 14-CT diamond-chain pipeline.

    The deepest case in the suite: every gamma round probes many placed CTs
    across a dense network, so this is where reading gamma's widths from
    the all-pairs table instead of searching pays off the most.
    """
    network = random_network(TopologyKind.FULL, 211, n_ncps=24)
    graph = diamond_chain_task_graph(4, cpu_per_ct=400.0, megabits_per_tt=2.0)
    graph = graph.with_pins(
        {"source": network.ncp_names[0], "sink": network.ncp_names[1]}
    )
    return graph, network


def dense_wide_case() -> tuple[TaskGraph, Network]:
    """48 fully connected NCPs (1128 links) x a 20-CT diamond-chain pipeline.

    Headroom case: the straight-line reference is far too slow here, so
    ``export_bench.py`` times the dict oracle (``tests/routing_oracles.py``)
    against the CSR kernel instead (see its ``NO_REFERENCE`` set).
    """
    network = random_network(TopologyKind.FULL, 248, n_ncps=48)
    graph = diamond_chain_task_graph(6, cpu_per_ct=400.0, megabits_per_tt=2.0)
    graph = graph.with_pins(
        {"source": network.ncp_names[0], "sink": network.ncp_names[1]}
    )
    return graph, network


def dense_huge_case() -> tuple[TaskGraph, Network]:
    """96 fully connected NCPs (4560 links) x a 29-CT diamond-chain pipeline.

    The largest case on record (diamond chains have 3k+2 CTs, so 29 is the
    nearest size to the nominal 28).  The dict oracle is timed as the
    comparison baseline for the CSR kernel.
    """
    network = random_network(TopologyKind.FULL, 296, n_ncps=96)
    graph = diamond_chain_task_graph(9, cpu_per_ct=400.0, megabits_per_tt=2.0)
    graph = graph.with_pins(
        {"source": network.ncp_names[0], "sink": network.ncp_names[1]}
    )
    return graph, network


#: bench id -> scenario builder, shared with ``export_bench.py``.
SCENARIOS = {
    "star-8": lambda: star_case(8),
    "star-16": lambda: star_case(16),
    "star-32": lambda: star_case(32),
    "linear-graph-4": lambda: linear_graph_case(4),
    "linear-graph-8": lambda: linear_graph_case(8),
    "linear-graph-16": lambda: linear_graph_case(16),
    "full-12": full_connectivity_case,
    "dense-24x14": dense_deep_case,
    "dense-48x20": dense_wide_case,
    "dense-96x29": dense_huge_case,
}


@pytest.mark.parametrize("n_ncps", [8, 16, 32])
def test_assignment_scales_with_network(benchmark, n_ncps):
    benchmark.extra_info["bench_id"] = f"star-{n_ncps}"
    graph, network = star_case(n_ncps)
    result = benchmark(sparcle_assign, graph, network)
    assert result.rate > 0


@pytest.mark.parametrize("n_cts", [4, 8, 16])
def test_assignment_scales_with_task_graph(benchmark, n_cts):
    benchmark.extra_info["bench_id"] = f"linear-graph-{n_cts}"
    graph, network = linear_graph_case(n_cts)
    result = benchmark(sparcle_assign, graph, network)
    assert result.rate > 0


def test_full_connectivity_worst_case(benchmark):
    """Dense networks exercise the widest-path search hardest."""
    benchmark.extra_info["bench_id"] = "full-12"
    graph, network = full_connectivity_case()
    result = benchmark(sparcle_assign, graph, network)
    assert result.rate > 0


def test_dense_network_deep_graph(benchmark):
    """The dense x deep stress case (see :func:`dense_deep_case`)."""
    benchmark.extra_info["bench_id"] = "dense-24x14"
    graph, network = dense_deep_case()
    result = benchmark(sparcle_assign, graph, network)
    assert result.rate > 0


@pytest.mark.parametrize(
    "bench_id", ["dense-48x20", "dense-96x29"]
)
def test_dense_headroom_cases(benchmark, bench_id):
    """The CSR-kernel headroom cases (see the ``dense_*`` builders)."""
    benchmark.extra_info["bench_id"] = bench_id
    graph, network = SCENARIOS[bench_id]()
    result = benchmark.pedantic(
        sparcle_assign, args=(graph, network), rounds=3, iterations=1
    )
    assert result.rate > 0
