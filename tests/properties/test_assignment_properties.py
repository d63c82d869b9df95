"""Property-based tests for the assignment pipeline (hypothesis).

Strategy: generate random task graphs and networks, then assert structural
invariants that must hold for *every* instance — validity of placements,
consistency between reported and recomputed rates, optimality bounds, and
monotonicity under capacity changes.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import assignment
from repro.core.assignment import sparcle_assign
from repro.core.network import NCP, Link, Network
from repro.core.placement import CapacityView
from repro.core.taskgraph import CPU, MEMORY, ComputationTask, TaskGraph, TransportTask
from repro.exceptions import InfeasiblePlacementError
from tests import assignment_oracle

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def chain_graphs(draw) -> TaskGraph:
    """Linear task graphs with 1-4 compute CTs and random demands."""
    n = draw(st.integers(min_value=1, max_value=4))
    cpu = [draw(st.floats(1.0, 5000.0)) for _ in range(n)]
    bits = [draw(st.floats(0.0, 20.0)) for _ in range(n + 1)]
    cts = [ComputationTask("source", {})]
    cts += [ComputationTask(f"ct{k}", {CPU: cpu[k]}) for k in range(n)]
    cts.append(ComputationTask("sink", {}))
    names = [ct.name for ct in cts]
    tts = [
        TransportTask(f"tt{k}", names[k], names[k + 1], bits[k])
        for k in range(len(names) - 1)
    ]
    return TaskGraph("chain", cts, tts)


@st.composite
def dag_graphs(draw) -> TaskGraph:
    """Random layered DAGs: source -> width-W layer(s) -> sink."""
    width = draw(st.integers(min_value=1, max_value=3))
    depth = draw(st.integers(min_value=1, max_value=2))
    cts = [ComputationTask("source", {})]
    layers: list[list[str]] = [["source"]]
    for d in range(depth):
        layer = []
        for w in range(width):
            name = f"n{d}_{w}"
            cts.append(ComputationTask(name, {CPU: draw(st.floats(1.0, 1000.0))}))
            layer.append(name)
        layers.append(layer)
    cts.append(ComputationTask("sink", {}))
    layers.append(["sink"])
    tts = []
    counter = 0
    for upper, lower in zip(layers, layers[1:]):
        for u in upper:
            for v in lower:
                tts.append(
                    TransportTask(f"t{counter}", u, v, draw(st.floats(0.0, 10.0)))
                )
                counter += 1
    return TaskGraph("dag", cts, tts)


@st.composite
def connected_networks(draw) -> Network:
    """Random connected networks: a spanning tree plus optional extra links."""
    n = draw(st.integers(min_value=2, max_value=6))
    ncps = [
        NCP(f"ncp{k}", {CPU: draw(st.floats(10.0, 10000.0))}) for k in range(n)
    ]
    links = []
    for k in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=k - 1))
        links.append(
            Link(f"tree{k}", f"ncp{parent}", f"ncp{k}",
                 draw(st.floats(0.5, 100.0)))
        )
    extras = draw(st.integers(min_value=0, max_value=3))
    attempt = 0
    existing = {frozenset((l.a, l.b)) for l in links}
    while extras > 0 and attempt < 10:
        attempt += 1
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a == b or frozenset((f"ncp{a}", f"ncp{b}")) in existing:
            continue
        links.append(
            Link(f"extra{attempt}", f"ncp{a}", f"ncp{b}",
                 draw(st.floats(0.5, 100.0)))
        )
        existing.add(frozenset((f"ncp{a}", f"ncp{b}")))
        extras -= 1
    return Network("net", ncps, links)


class TestPlacementInvariants:
    @SETTINGS
    @given(graph=chain_graphs(), network=connected_networks())
    def test_placement_always_validates(self, graph, network):
        result = sparcle_assign(graph, network)
        result.placement.validate(network)

    @SETTINGS
    @given(graph=chain_graphs(), network=connected_networks())
    def test_rate_matches_recomputation(self, graph, network):
        result = sparcle_assign(graph, network)
        recomputed = result.placement.bottleneck_rate(CapacityView(network))
        assert math.isclose(result.rate, recomputed, rel_tol=1e-9) or (
            math.isinf(result.rate) and math.isinf(recomputed)
        )

    @SETTINGS
    @given(graph=dag_graphs(), network=connected_networks())
    def test_dag_graphs_place_every_ct(self, graph, network):
        result = sparcle_assign(graph, network)
        assert set(result.placement.ct_hosts) == {ct.name for ct in graph.cts}
        result.placement.validate(network)

    @SETTINGS
    @given(graph=chain_graphs(), network=connected_networks())
    def test_determinism(self, graph, network):
        a = sparcle_assign(graph, network)
        b = sparcle_assign(graph, network)
        assert a.placement.ct_hosts == b.placement.ct_hosts
        assert a.placement.tt_routes == b.placement.tt_routes


class TestRateBounds:
    @SETTINGS
    @given(graph=chain_graphs(), network=connected_networks())
    def test_rate_never_exceeds_relaxation_bound(self, graph, network):
        from repro.baselines.optimal import optimal_rate_upper_bound

        result = sparcle_assign(graph, network)
        bound = optimal_rate_upper_bound(graph, network)
        if math.isinf(bound):
            return
        assert result.rate <= bound * (1 + 1e-9)

    @SETTINGS
    @given(graph=chain_graphs(), network=connected_networks())
    def test_never_beats_exhaustive_optimum(self, graph, network):
        from repro.baselines.optimal import optimal_assign
        from repro.exceptions import SparcleError

        assume(len(network.ncps) ** (len(graph.cts)) <= 5000)
        result = sparcle_assign(graph, network)
        try:
            # Exhaustive routing: greedy routing is only exact on trees,
            # and this property demands the true optimum.
            best = optimal_assign(
                graph, network, max_assignments=5000, routing="exhaustive",
                max_route_combinations=20000,
            )
        except (SparcleError, InfeasiblePlacementError):
            return
        if math.isinf(best.rate):
            return
        assert result.rate <= best.rate * (1 + 1e-9)

    @SETTINGS
    @given(graph=chain_graphs(), network=connected_networks(),
           factor=st.floats(0.1, 0.9))
    def test_monotone_in_capacity(self, graph, network, factor):
        """Shrinking every capacity cannot raise the achieved rate."""
        full = sparcle_assign(graph, network)
        shrunk_view = CapacityView(network).scaled(
            {name: factor for name in network.element_names()}
        )
        shrunk = sparcle_assign(graph, network, shrunk_view)
        if math.isinf(full.rate):
            assert math.isinf(shrunk.rate)
        else:
            assert shrunk.rate <= full.rate * (1 + 1e-9)

    @SETTINGS
    @given(graph=chain_graphs(), network=connected_networks(),
           factor=st.floats(0.1, 0.9))
    def test_uniform_scaling_scales_rate_linearly(self, graph, network, factor):
        """Same placement evaluated at factor*C yields factor*rate."""
        result = sparcle_assign(graph, network)
        if math.isinf(result.rate):
            return
        view = CapacityView(network).scaled(
            {name: factor for name in network.element_names()}
        )
        scaled_rate = result.placement.bottleneck_rate(view)
        assert math.isclose(scaled_rate, factor * result.rate, rel_tol=1e-9)


@st.composite
def tie_prone_networks(draw) -> Network:
    """Sparse connected networks with one CPU size and few bandwidths.

    Equal CPUs and a three-value bandwidth palette make many hosts tie on
    gamma; sparsity (a spanning tree plus at most two chords) forces the
    two TTs of one CT onto shared links — the case where the tie-break's
    bound exceeds the exact rate.
    """
    n = draw(st.integers(min_value=4, max_value=7))
    bandwidth = st.sampled_from([4.0, 10.0, 25.0])
    links = [
        Link(f"t{k}", f"n{draw(st.integers(0, k - 1))}", f"n{k}", draw(bandwidth))
        for k in range(1, n)
    ]
    existing = {frozenset((link.a, link.b)) for link in links}
    for attempt in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a != b and frozenset((f"n{a}", f"n{b}")) not in existing:
            links.append(Link(f"e{attempt}", f"n{a}", f"n{b}", draw(bandwidth)))
            existing.add(frozenset((f"n{a}", f"n{b}")))
    return Network("ties", [NCP(f"n{k}", {CPU: 1000.0}) for k in range(n)], links)


def _fan_graph(
    n_mids: int, src_host: str, snk_host: str, *, cpu: float = 1.0, fat_out: bool = False
) -> TaskGraph:
    """``src -> mid_k -> snk`` for every k: each mid has two placed neighbours.

    ``fat_out`` widens ``mid_k -> snk`` to 5 megabits and adds a thin
    ``mid_k -> relay_k -> snk`` detour, which becomes the pair's cheapest
    TT: gamma then probes a 1-megabit width while the tie-break routes the
    fat connecting TT, so bounds differ among hosts that tie on gamma.
    """
    cts = [ComputationTask("src", {}, pinned_host=src_host)]
    tts = []
    for k in range(n_mids):
        cts.append(ComputationTask(f"mid{k}", {CPU: cpu}))
        tts.append(TransportTask(f"in{k}", "src", f"mid{k}", 2.0))
        tts.append(TransportTask(f"out{k}", f"mid{k}", "snk", 5.0 if fat_out else 2.0))
        if fat_out:
            cts.append(ComputationTask(f"relay{k}", {}))
            tts.append(TransportTask(f"thin{k}a", f"mid{k}", f"relay{k}", 1.0))
            tts.append(TransportTask(f"thin{k}b", f"relay{k}", "snk", 1.0))
    cts.append(ComputationTask("snk", {}, pinned_host=snk_host))
    return TaskGraph("fan", cts, tts)


def _paired_states(graph: TaskGraph, network: Network):
    state = assignment._State(graph, network, CapacityView(network))
    oracle = assignment_oracle._ReferenceState(graph, network, CapacityView(network))
    assignment._pin_initial_cts(state)
    assignment_oracle._pin_initial_cts(oracle)
    return state, oracle


class TestBoundedTieBreak:
    """``best_host`` confirms exact partial rates only where a bound allows
    a win; the winner must still be the reference's ``max(tied, key=exact)``."""

    def test_star_leaves_have_a_bound_above_their_exact_rate(self):
        # src on leaf n1, snk on leaf n2 of a star with hub n0: a mid on
        # leaf n3 routes both TTs over the one n0-n3 link (exact 10 / 4),
        # while each TT alone sees 10 / 2 — the bound.  Every host ties on
        # gamma (10 / 2); the hub is first to *achieve* it.
        network = Network(
            "star", [NCP(f"n{k}", {CPU: 1000.0}) for k in range(5)],
            [Link(f"l{k}", "n0", f"n{k}", 10.0) for k in range(1, 5)],
        )
        state, oracle = _paired_states(_fan_graph(1, "n1", "n2"), network)
        assert state.partial_rate_bound("mid0", "n3") == (5.0, False)
        assert state.partial_rate_after("mid0", "n3") == 2.5
        assert oracle.partial_rate_after("mid0", "n3") == 2.5
        hosts = list(network.ncp_names)
        assert state.best_host("mid0", hosts) == oracle.best_host("mid0", hosts)
        assert state.best_host("mid0", hosts) == (5.0, "n0")

    def test_a_later_host_whose_exact_rate_only_ties_does_not_win(self):
        # After mid0 lands on the hub, n3 has the highest bound (4.0) but
        # its two TTs share the n0-n3 link and the exact rate is 25 / 7 —
        # exactly what n2, earlier in ``hosts`` and co-located with src,
        # achieves with its single TT.  ``max`` keeps the earlier host.
        network = Network(
            "star", [NCP(f"n{k}", {CPU: 1000.0}) for k in range(4)],
            [Link(f"l{k}", "n0", f"n{k}", bw) for k, bw in ((1, 4.0), (2, 25.0), (3, 25.0))],
        )
        state, oracle = _paired_states(
            _fan_graph(2, "n2", "n0", cpu=250.0, fat_out=True), network
        )
        state.commit("mid0", "n0")
        oracle.commit("mid0", "n0")
        assert state.partial_rate_bound("mid1", "n2") == (25.0 / 7.0, True)
        assert state.partial_rate_bound("mid1", "n3") == (4.0, False)
        assert state.partial_rate_after("mid1", "n3") == 25.0 / 7.0
        hosts = list(network.ncp_names)
        assert state.best_host("mid1", hosts) == oracle.best_host("mid1", hosts)
        assert state.best_host("mid1", hosts) == (4.0, "n2")

    @SETTINGS
    @given(
        network=tie_prone_networks(),
        n_mids=st.integers(min_value=1, max_value=3),
        ends=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        cpu=st.sampled_from([1.0, 250.0]),
        fat_out=st.booleans(),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_winner_matches_reference_round_by_round(
        self, network, n_mids, ends, cpu, fat_out, shuffle
    ):
        names = network.ncp_names
        graph = _fan_graph(
            n_mids, names[ends[0] % len(names)], names[ends[1] % len(names)],
            cpu=cpu, fat_out=fat_out,
        )
        state, oracle = _paired_states(graph, network)
        hosts = list(names)
        shuffle.shuffle(hosts)  # ties must follow *this* order, not NCP ids
        for k in range(n_mids):
            mid = f"mid{k}"
            for host in hosts:
                bound, exact = state.partial_rate_bound(mid, host)
                rate = oracle.partial_rate_after(mid, host)
                assert state.partial_rate_after(mid, host) == rate
                assert bound == rate if exact else bound >= rate
            choice = state.best_host(mid, hosts)
            assert choice == oracle.best_host(mid, hosts)
            state.commit(mid, choice[1])
            oracle.commit(mid, choice[1])
        assert state.link_loads == oracle.link_loads


@st.composite
def two_resource_cases(draw) -> tuple[TaskGraph, Network]:
    """A layered DAG needing CPU and/or memory on a tree network.

    Requirements include zeros, and some NCPs provide no memory at all
    (or a zero amount), so resources missing on a host meet demands that
    are zero or not.
    """
    n = draw(st.integers(min_value=3, max_value=6))
    ncps = []
    for k in range(n):
        caps = {CPU: draw(st.sampled_from([500.0, 1000.0]))}
        if draw(st.booleans()):
            caps[MEMORY] = draw(st.sampled_from([0.0, 8.0, 64.0]))
        ncps.append(NCP(f"n{k}", caps))
    links = [
        Link(f"t{k}", f"n{draw(st.integers(0, k - 1))}", f"n{k}",
             draw(st.sampled_from([4.0, 10.0])))
        for k in range(1, n)
    ]
    host = st.sampled_from([f"n{k}" for k in range(n)])
    cts = [ComputationTask("source", {}, pinned_host=draw(host))]
    tts = []
    previous = ["source"]
    for d in range(draw(st.integers(min_value=1, max_value=2))):
        layer = []
        for w in range(draw(st.integers(min_value=1, max_value=3))):
            needs = {CPU: draw(st.sampled_from([0.0, 1.0, 250.0]))}
            if draw(st.booleans()):
                needs[MEMORY] = draw(st.sampled_from([0.0, 2.0]))
            name = f"c{d}_{w}"
            cts.append(ComputationTask(name, needs))
            for parent in previous:
                tts.append(TransportTask(f"{parent}-{name}", parent, name, 1.0))
            layer.append(name)
        previous = layer
    cts.append(ComputationTask("sink", {CPU: 1.0}, pinned_host=draw(host)))
    tts += [TransportTask(f"{p}-sink", p, "sink", 2.0) for p in previous]
    return TaskGraph("two-resource", cts, tts), Network("mem", ncps, links)


class TestNcpTermMatrix:
    """The (CTs × NCPs) NCP-term matrix and the probe groups stay equal to
    the reference's scalar terms and γ through a sequence of commits."""

    @SETTINGS
    @given(
        case=two_resource_cases(),
        shuffle=st.randoms(use_true_random=False),
        data=st.data(),
    )
    def test_every_cell_equals_the_scalar_term_across_commits(
        self, case, shuffle, data
    ):
        graph, network = case
        state, oracle = _paired_states(graph, network)
        names = network.ncp_names
        hosts = list(names)
        shuffle.shuffle(hosts)
        node_index = state._compiled.node_index
        unplaced = [ct.name for ct in graph.cts if ct.name not in state.ct_hosts]
        while True:
            for ct in graph.cts:
                scalar = [oracle.ncp_term(ct.name, host) for host in hosts]
                assert [state.ncp_term(ct.name, host) for host in hosts] == scalar
                in_order = [oracle.ncp_term(ct.name, host) for host in names]
                first_best = in_order.index(max(in_order))
                assert state.best_host_compute_only(ct.name) == (
                    in_order[first_best], names[first_best]
                )
            for ct_name in unplaced:
                row = state.gamma_row(ct_name)
                assert [float(row[node_index[host]]) for host in hosts] == [
                    oracle.gamma(ct_name, host) for host in hosts
                ]
            if not unplaced:
                break
            ct_name = unplaced.pop(data.draw(st.integers(0, len(unplaced) - 1)))
            host = data.draw(st.sampled_from(hosts))
            state.commit(ct_name, host)
            oracle.commit(ct_name, host)
