"""Golden equivalence suite: optimized Algorithm 2 vs the straight-line reference.

The width-table assignment in ``repro.core.assignment`` must be
*decision-identical* to the straight-line reference implementation
(``tests/assignment_oracle.py``): same CT hosts, same TT routes, same rate,
same placement order — not merely the same rate.  The reference routes on
the dict oracle of ``tests/routing_oracles.py``, so it shares no
Algorithm-1 code with ``src/``.  The suite sweeps seeded random scenarios
over every topology x graph-shape combination (plus the face-detection
testbed and directed networks), and additionally pins down the two
mechanisms the optimization relies on:

* the all-pairs width tables and the memoized current rate live exactly as
  long as the load state they were built under (dropped by a commit that
  loads links, kept by a fully co-located one);
* the ``repro.perf`` counters show no tree search at all and at most one
  table per (commit, TT megabits).
"""

from __future__ import annotations

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest

from repro.core import assignment
from repro.core.arrays import (
    all_pairs_widths,
    compile_network,
    link_residuals,
    link_weights,
)
from repro.core.assignment import _State, sparcle_assign
from repro.core.network import NCP, Link, Network, as_directed, fully_connected_network
from repro.core.placement import CapacityView
from repro.core.taskgraph import (
    CPU,
    ComputationTask,
    TaskGraph,
    TransportTask,
    linear_task_graph,
)
from repro.perf import counters
from repro.workloads.facedetect import face_detection_graph, testbed_network
from repro.workloads.scenarios import (
    BottleneckCase,
    GraphKind,
    TopologyKind,
    make_scenario,
)
from tests.assignment_oracle import reference_assign
from tests.routing_oracles import dict_point_queries

#: 2 shapes x 3 topologies x 3 regimes x 2 draws = 36 seeded scenarios.
SCENARIO_GRID = [
    pytest.param(case, graph_kind, topology, 7919 * index + draw, id=f"{case.value}-{graph_kind.value}-{topology.value}-{draw}")
    for index, (case, graph_kind, topology) in enumerate(
        itertools.product(BottleneckCase, GraphKind, TopologyKind)
    )
    for draw in (0, 1)
]


def assert_identical(graph, network, capacities=None) -> None:
    reference = reference_assign(graph, network, capacities)
    optimized = sparcle_assign(graph, network, capacities)
    assert optimized.placement.ct_hosts == reference.placement.ct_hosts
    assert optimized.placement.tt_routes == reference.placement.tt_routes
    assert optimized.rate == reference.rate
    assert optimized.placement_order == reference.placement_order


class TestGoldenEquivalence:
    @pytest.mark.parametrize("case,graph_kind,topology,seed", SCENARIO_GRID)
    def test_random_scenarios(self, case, graph_kind, topology, seed):
        scenario = make_scenario(case, graph_kind, topology, seed)
        assert_identical(scenario.graph, scenario.network)

    @pytest.mark.parametrize(
        "case,seed",
        [pytest.param(BottleneckCase.BALANCED, 31 + k, id=str(k)) for k in range(4)]
        + [
            pytest.param(BottleneckCase.LINK, seed, id=f"link-{seed}")
            for seed in (61, 62, 63)
        ],
    )
    def test_directed_networks(self, case, seed):
        scenario = make_scenario(case, GraphKind.DIAMOND, TopologyKind.FULL, seed)
        assert_identical(scenario.graph, as_directed(scenario.network))

    @pytest.mark.parametrize("field_bandwidth", [0.5, 5.0, 10.0, 22.0])
    def test_face_detection_testbed(self, field_bandwidth):
        assert_identical(
            face_detection_graph(), testbed_network(field_bandwidth=field_bandwidth)
        )

    def test_residual_capacity_view(self):
        """Equivalence must also hold when assigning on top of tenants."""
        scenario = make_scenario(
            BottleneckCase.BALANCED, GraphKind.LINEAR, TopologyKind.STAR, 4242
        )
        caps = CapacityView(scenario.network)
        first = sparcle_assign(scenario.graph, scenario.network, caps.copy())
        consumed = caps.copy()
        consumed.consume(first.placement.loads(), first.rate * 0.5)
        assert_identical(scenario.graph, scenario.network, consumed.copy())
        # The reference run above must not have been fed a mutated view.
        assert consumed.snapshot() == consumed.copy().snapshot()


class TestKernelIdentity:
    """dict-oracle vs CSR-kernel ``sparcle_assign`` decision identity.

    Beyond the straight-line-reference equivalence above, whole assignment
    runs must not change when only Algorithm 2's point queries — floored
    commit routes included — are swapped for the dict oracle (the
    substitution ``benchmarks/export_bench.py`` times as
    ``dict_kernel_ms``).
    """

    def _assert_kernels_agree(self, graph, network, capacities=None) -> None:
        with dict_point_queries():
            ref = sparcle_assign(graph, network, capacities)
        opt = sparcle_assign(graph, network, capacities)
        assert opt.placement.ct_hosts == ref.placement.ct_hosts
        assert opt.placement.tt_routes == ref.placement.tt_routes
        assert opt.rate == ref.rate
        assert opt.placement_order == ref.placement_order

    @pytest.mark.parametrize(
        "case,graph_kind,topology,seed",
        SCENARIO_GRID[::3],  # every 3rd grid point: 12 scenarios
    )
    def test_random_scenarios(self, case, graph_kind, topology, seed):
        scenario = make_scenario(case, graph_kind, topology, seed)
        self._assert_kernels_agree(scenario.graph, scenario.network)

    @pytest.mark.parametrize("seed", range(3))
    def test_directed_networks(self, seed):
        scenario = make_scenario(
            BottleneckCase.LINK, GraphKind.DIAMOND, TopologyKind.FULL, 61 + seed
        )
        self._assert_kernels_agree(scenario.graph, as_directed(scenario.network))

    def test_face_detection_testbed(self):
        self._assert_kernels_agree(
            face_detection_graph(), testbed_network(field_bandwidth=5.0)
        )

    def test_every_point_query_reaches_the_oracle(self):
        # Unpatched, some commit routes run floored on the CSR kernel;
        # under the patch no point query reaches the CSR kernel at all.
        scenario = make_scenario(
            BottleneckCase.LINK, GraphKind.DIAMOND, TopologyKind.FULL, 61
        )
        before = counters.get("routing.widest_path")
        with mock.patch.object(
            assignment, "_point_search", wraps=assignment._point_search
        ) as floored:
            sparcle_assign(scenario.graph, scenario.network)
        assert floored.call_count > 0
        assert counters.get("routing.widest_path") > before
        before = counters.get("routing.widest_path")
        with dict_point_queries():
            sparcle_assign(scenario.graph, scenario.network)
        assert counters.get("routing.widest_path") == before


def _probe_network() -> Network:
    """A clique where the hub links are wide and the d-spokes are narrow."""
    ncps = [NCP(n, {CPU: 1000.0}) for n in "abcd"]
    links = [
        Link("ab", "a", "b", 100.0),
        Link("ac", "a", "c", 100.0),
        Link("ad", "a", "d", 1.0),
        Link("bc", "b", "c", 100.0),
        Link("bd", "b", "d", 1.0),
        Link("cd", "c", "d", 100.0),
    ]
    return Network("probe", ncps, links)


def _probe_state(network: Network) -> _State:
    graph = TaskGraph(
        "probe-app",
        [
            ComputationTask("src", {}, pinned_host="a"),
            ComputationTask("mid", {CPU: 10.0}),
            ComputationTask("snk", {}, pinned_host="b"),
        ],
        [
            TransportTask("t1", "src", "mid", 2.0),
            TransportTask("t2", "mid", "snk", 2.0),
        ],
    )
    state = _State(graph, network, CapacityView(network))
    state.ct_hosts = {"src": "a", "snk": "b"}
    state.order = ["src", "snk"]
    return state


def _fresh_table(state: _State, megabits: float):
    """The table recomputed from scratch for the state's current loads."""
    compiled = compile_network(state.network)
    residual = link_residuals(compiled, state.capacities)
    return all_pairs_widths(
        compiled, link_weights(compiled, residual, megabits, state.link_loads)
    )


class TestIncrementalInvalidation:
    def test_commit_evicts_exactly_the_tables_of_the_old_load_state(self):
        network = _probe_network()
        state = _probe_state(network)
        ids = compile_network(network).node_index
        before = state.width_table(2.0)
        state.width_table(5.0)
        assert before[ids["a"], ids["b"]] == 100.0 / 2.0
        assert state.current_rate() == math.inf  # nothing loaded yet
        assert set(state._width_tables) == {2.0, 5.0}

        # Placing mid on b routes t1 over the direct a-b link only.
        state.commit("mid", "b")
        assert state.tt_routes["t1"] == ("ab",)
        assert state.tt_routes["t2"] == ()
        assert state._width_tables == {}
        assert state._weights_cache == {}
        assert state._current_rate is None

        # Rebuilt lazily against the new loads: a-b now detours via c
        # (100 / 2) instead of the loaded direct link (100 / (2 + 2)).
        after = state.width_table(2.0)
        assert after is not before
        assert after[ids["a"], ids["b"]] == 100.0 / 2.0
        assert (after == _fresh_table(state, 2.0)).all()
        assert state.current_rate() == 100.0 / 2.0  # ab: 100 / 2

    def test_retained_table_still_matches_fresh_computation(self):
        """Survivors of a co-located commit answer as a recomputation would."""
        network = _probe_network()
        state = _probe_state(network)
        state.link_loads["cd"] = 3.0  # a pre-loaded link, so rates are finite
        state.ct_hosts = {"src": "a", "snk": "a"}
        survivor = state.width_table(2.0)
        state.current_rate()
        state.commit("mid", "a")
        assert state._width_tables[2.0] is survivor
        assert (survivor == _fresh_table(state, 2.0)).all()
        folded = state._current_rate
        state._current_rate = None
        assert folded == state.current_rate() == 100.0 / 3.0

    def test_colocated_commit_dirties_nothing(self):
        network = _probe_network()
        state = _probe_state(network)
        state.ct_hosts = {"src": "a", "snk": "a"}
        table = state.width_table(2.0)
        assert state.current_rate() == math.inf
        state.commit("mid", "a")  # both TTs are NCP-internal
        assert state._width_tables[2.0] is table
        # The memo survived, with the host's new CPU term folded in.
        assert state._current_rate == 1000.0 / 10.0


def _mesh_stream(count: int, seed: int) -> tuple[Network, list[TaskGraph]]:
    """Small 3-CT chains pinned between random NCPs of a homogeneous mesh."""
    network = fully_connected_network(
        16, name="mesh16", cpu=200000.0, link_bandwidth=500.0
    )
    names = network.ncp_names
    rng = np.random.default_rng(seed)
    graphs = []
    for index in range(count):
        src, dst = rng.choice(len(names), size=2, replace=False)
        graphs.append(
            linear_task_graph(
                3, cpu_per_ct=[200.0, 300.0, 100.0],
                megabits_per_tt=[1.0, 0.8, 0.5, 0.5],
            ).with_pins({"source": names[src], "sink": names[dst]}, name=f"app{index}")
        )
    return network, graphs


def _every_ct_tie_break_assign(graph, network, capacities):
    """Algorithm 2 with the host tie-break run for every unplaced CT."""
    state = _State(graph, network, capacities)
    assignment._pin_initial_cts(state)
    unplaced = [ct.name for ct in graph.cts if ct.name not in state.ct_hosts]
    hosts = list(network.ncp_names)
    while unplaced:
        choices = [(state.best_host(ct_name, hosts), ct_name) for ct_name in unplaced]
        (_, host), ct_name = min(choices, key=lambda choice: choice[0][0])
        state.commit(ct_name, host)
        unplaced.remove(ct_name)
    return state.finalize()


class TestWinnerOnlyTieBreak:
    """The CT choice reads only γ, so the host tie-break runs for the
    chosen CT alone — with decisions equal to an every-CT tie-break's."""

    @staticmethod
    def _tie_break_rounds(assign) -> list[tuple[str, set[str]]]:
        """``(committed CT, CTs the round's bounds/simulations ran for)``."""
        network, graphs = _mesh_stream(4, seed=0)
        events: list[tuple[str, str]] = []

        def spy(kind, method):
            def wrapper(self, ct_name, host):
                events.append((kind, ct_name))
                return method(self, ct_name, host)
            return wrapper

        with mock.patch.multiple(
            _State,
            partial_rate_bound=spy("bound", _State.partial_rate_bound),
            _simulated_rate=spy("simulate", _State._simulated_rate),
            commit=spy("commit", _State.commit),
        ):
            for graph in graphs:
                assign(graph, network, CapacityView(network))
        rounds, pending = [], set()
        for kind, ct_name in events:
            if kind == "commit":
                rounds.append((ct_name, pending))
                pending = set()
            else:
                pending.add(ct_name)
        assert len(rounds) == 3 * len(graphs)
        return rounds

    def test_bounds_and_simulations_run_only_for_the_committed_ct(self):
        rounds = self._tie_break_rounds(sparcle_assign)
        # Hosts tie in two of each app's three rounds on the homogeneous
        # mesh; each of those tie-breaks is the committed CT's alone.
        assert sum(1 for _, tie_broken in rounds if tie_broken) == 2 * len(rounds) // 3
        assert all(tie_broken <= {ct_name} for ct_name, tie_broken in rounds)
        # The every-CT loop spends bounds on CTs that do not win the round.
        every = self._tie_break_rounds(_every_ct_tie_break_assign)
        assert any(tie_broken - {ct_name} for ct_name, tie_broken in every)

    def test_fewer_point_searches_than_an_every_ct_tie_break(self):
        network, graphs = _mesh_stream(30, seed=1)
        views = [CapacityView(network), CapacityView(network)]
        searches = [0, 0]
        for graph in graphs:
            results = []
            for k, assign in enumerate((sparcle_assign, _every_ct_tie_break_assign)):
                before = counters.get("routing.widest_path")
                results.append(assign(graph, network, views[k]))
                searches[k] += counters.get("routing.widest_path") - before
            ours, every = results
            assert ours.placement.ct_hosts == every.placement.ct_hosts
            assert ours.placement.tt_routes == every.placement.tt_routes
            assert ours.rate == every.rate
            assert ours.placement_order == every.placement_order
            for view, result in zip(views, results):
                view.consume(result.placement.loads(), 0.5 * result.rate)
        assert searches[0] < searches[1]


class TestPerfCounters:
    def test_hot_path_counters_are_queryable_and_consistent(self):
        counters.reset()
        scenario = make_scenario(
            BottleneckCase.BALANCED, GraphKind.DIAMOND, TopologyKind.FULL, 99,
            n_ncps=10,
        )
        result = sparcle_assign(scenario.graph, scenario.network)
        assert result.rate > 0

        # No single-source search runs any more: every Eq.-(2) width is a
        # cell of an all-pairs table, built at most once per load state
        # (= per commit) and TT size.
        assert counters.get("routing.widest_path_tree") == 0
        commits = counters.get("assignment.commits")
        assert commits == 6  # the diamond graph's unpinned CTs
        sizes = {tt.megabits_per_unit for tt in scenario.graph.tts}
        tables = counters.get("assignment.width_tables")
        assert 0 < tables <= commits * len(sizes)

        # Point-to-point searches remain (commit routing, tie-breaks).
        assert counters.get("routing.widest_path") > 0

        # The @timed hook on sparcle_assign recorded wall time.
        stats = counters.timer_stats("assignment.sparcle_assign")
        assert stats.calls == 1
        assert stats.total_seconds > 0.0

        snapshot = counters.snapshot()
        assert snapshot["counters"]["assignment.width_tables"] == tables
        assert "assignment.sparcle_assign" in snapshot["timers"]

    def test_reset_and_export(self):
        counters.reset()
        counters.incr("example.counter", 3)
        snapshot = json.loads(json.dumps(counters.snapshot()))
        assert snapshot["counters"] == {"example.counter": 3}
        counters.reset()
        assert counters.get("example.counter") == 0
        assert math.isinf(float("inf"))  # keep math import honest
