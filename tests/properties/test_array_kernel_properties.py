"""Property-based equivalence: the CSR Algorithm-1 kernel vs the dict oracle.

:func:`repro.core.routing.widest_path` / ``widest_path_tree`` must
reproduce the dict-of-dicts oracle of ``tests/routing_oracles.py``
*bit-for-bit* — widths, predecessors and tiebreaks — on arbitrary
connected networks (undirected and directed, forward and reverse trees,
loaded and unloaded links), and the all-pairs width table Algorithm 2
reads must equal those trees root by root.  Hypothesis sweeps random
topologies; every comparison is exact ``==``, never ``isclose``.

Bandwidths and loads are drawn partly from a small grid that includes
``0.0``, so distinct links of equal weight — and with them the
lexicographic tie-break both implementations must share — occur in many
examples, not only ties through a shared upstream bottleneck
(``hypothesis.event`` reports both: run with
``--hypothesis-show-statistics``).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.arrays import (
    all_pairs_widths,
    compile_network,
    link_residuals,
    link_weights,
)
from repro.core.network import NCP, Link, Network, as_directed
from repro.core.placement import CapacityView
from repro.core.routing import _point_search, widest_path, widest_path_tree
from tests.routing_oracles import (
    link_weight,
    widest_path_dict,
    widest_path_tree_dict,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A grid value collides with another draw often enough to make ties;
#: the continuous range keeps the widths otherwise arbitrary.
_GRID = st.sampled_from([0.0, 1.0, 2.0, 5.0])
bandwidth_values = st.one_of(_GRID, st.floats(0.1, 100.0))
load_values = st.one_of(_GRID, st.floats(0.0, 30.0))


@st.composite
def connected_networks(draw) -> Network:
    """Random connected multigraph-free networks, 2–7 nodes."""
    n = draw(st.integers(min_value=2, max_value=7))
    ncps = [NCP(f"n{k}") for k in range(n)]
    links = []
    for k in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=k - 1))
        links.append(
            Link(f"t{k}", f"n{parent}", f"n{k}", draw(bandwidth_values))
        )
    existing = {frozenset((link.a, link.b)) for link in links}
    for attempt in range(draw(st.integers(min_value=0, max_value=6))):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a == b or frozenset((f"n{a}", f"n{b}")) in existing:
            continue
        links.append(
            Link(f"e{attempt}", f"n{a}", f"n{b}", draw(bandwidth_values))
        )
        existing.add(frozenset((f"n{a}", f"n{b}")))
    return Network("net", ncps, links)


@st.composite
def link_load_maps(draw, network: Network) -> dict[str, float]:
    loads = {}
    for name in network.link_names:
        if draw(st.booleans()):
            loads[name] = draw(load_values)
    return loads


def _tie_kind(network, caps, tt, loads, tree) -> str:
    """Label a tree by how some node is reached equally wide over two links.

    ``"equal-weight tie"``: two of those links are themselves the bottleneck
    at the same width (what the grid draws make likely); ``"shared-bottleneck
    tie"``: the routes tie only because they share an upstream bottleneck.
    """
    into = network.forward_links if tree.reverse else network.backward_links
    kind = "no tie"
    for node, width in tree.widths.items():
        if node == tree.root:
            continue
        ways = bottlenecks = 0
        for link in into(node):
            parent = link.other(node)
            if parent not in tree.widths:
                continue
            w = link_weight(network, caps, link.name, tt, loads)
            if min(tree.widths[parent], w) == width:
                ways += 1
                bottlenecks += w == width
        if bottlenecks > 1:
            return "equal-weight tie"
        if ways > 1:
            kind = "shared-bottleneck tie"
    return kind


def _tree_pair(network, caps, root, tt, loads, reverse):
    ref = widest_path_tree_dict(network, caps, root, tt, loads, reverse=reverse)
    arr = widest_path_tree(network, caps, root, tt, loads, reverse=reverse)
    event(_tie_kind(network, caps, tt, loads, ref))
    return ref, arr


def assert_trees_identical(ref, arr) -> None:
    assert dict(arr.widths) == dict(ref.widths)
    assert dict(arr.prev) == dict(ref.prev)
    # Same exact float objects' values: spot-check bit patterns too.
    for node, width in ref.widths.items():
        got = arr.widths[node]
        assert got == width
        if math.isfinite(width):
            assert math.copysign(1.0, got) == math.copysign(1.0, width)


class TestTreeEquivalence:
    @SETTINGS
    @given(
        network=connected_networks(),
        root=st.integers(0, 6),
        tt=st.floats(0.1, 20.0),
        data=st.data(),
        reverse=st.booleans(),
    )
    def test_tree_matches_dict_kernel(self, network, root, tt, data, reverse):
        names = network.ncp_names
        root_name = names[root % len(names)]
        loads = data.draw(link_load_maps(network))
        caps = CapacityView(network)
        ref, arr = _tree_pair(network, caps, root_name, tt, loads, reverse)
        assert_trees_identical(ref, arr)

    @SETTINGS
    @given(
        network=connected_networks(),
        root=st.integers(0, 6),
        tt=st.floats(0.1, 20.0),
        reverse=st.booleans(),
    )
    def test_directed_tree_matches_dict_kernel(self, network, root, tt, reverse):
        directed = as_directed(network)
        names = directed.ncp_names
        root_name = names[root % len(names)]
        caps = CapacityView(directed)
        ref, arr = _tree_pair(directed, caps, root_name, tt, {}, reverse)
        assert_trees_identical(ref, arr)

    @SETTINGS
    @given(
        network=connected_networks(),
        root=st.integers(0, 6),
        tt=st.floats(0.1, 20.0),
    )
    def test_zero_residual_links_match(self, network, root, tt):
        """Zero-width paths are representable and identical across kernels."""
        names = network.ncp_names
        root_name = names[root % len(names)]
        caps = CapacityView(network)
        for name in network.link_names[::2]:
            caps.override(name, "bandwidth", 0.0)
        ref, arr = _tree_pair(network, caps, root_name, tt, {}, False)
        assert_trees_identical(ref, arr)


class TestPointQueryEquivalence:
    @SETTINGS
    @given(
        network=connected_networks(),
        src=st.integers(0, 6),
        dst=st.integers(0, 6),
        tt=st.floats(0.1, 20.0),
        data=st.data(),
    )
    def test_widest_path_matches_dict_kernel(self, network, src, dst, tt, data):
        names = network.ncp_names
        a, b = names[src % len(names)], names[dst % len(names)]
        loads = data.draw(link_load_maps(network))
        caps = CapacityView(network)
        ref = widest_path_dict(network, caps, a, b, tt, loads)
        arr = widest_path(network, caps, a, b, tt, loads)
        tree = widest_path_tree_dict(network, caps, a, tt, loads)
        event(_tie_kind(network, caps, tt, loads, tree))
        if ref is None:
            assert arr is None
            return
        assert arr is not None
        assert arr.links == ref.links
        assert arr.bottleneck == ref.bottleneck

    @SETTINGS
    @given(
        network=connected_networks(),
        src=st.integers(0, 6),
        tt=st.floats(0.1, 20.0),
    )
    def test_point_query_agrees_with_own_tree(self, network, src, tt):
        """The early-exit point query equals the exhaustive tree, per node."""
        names = network.ncp_names
        a = names[src % len(names)]
        caps = CapacityView(network)
        tree = widest_path_tree(network, caps, a, tt)
        for b in names:
            result = widest_path(network, caps, a, b, tt)
            if result is None:
                assert tree.width_to(b) is None
            else:
                assert result.bottleneck == tree.width_to(b)
                assert result.links == (tree.links_to(b) or ())


@st.composite
def arbitrary_networks(draw) -> Network:
    """Random networks with nothing guaranteed: disconnected components,
    isolated NCPs, zero-bandwidth links and, when directed, antiparallel
    link pairs (``Network`` rejects same-direction parallels itself)."""
    n = draw(st.integers(min_value=1, max_value=7))
    directed = draw(st.booleans())
    nodes = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(nodes, nodes), max_size=14, unique=True))
    links, seen = [], set()
    for a, b in pairs:
        key = (a, b) if directed else frozenset((a, b))
        if a == b or key in seen:
            continue
        seen.add(key)
        bandwidth = draw(st.one_of(st.just(0.0), st.floats(0.1, 100.0)))
        links.append(Link(f"l{a}_{b}", f"n{a}", f"n{b}", bandwidth))
    return Network(
        "net", [NCP(f"n{k}") for k in range(n)], links, directed=directed
    )


class TestAllPairsTable:
    @SETTINGS
    @given(
        network=arbitrary_networks(),
        tt=st.one_of(st.just(0.0), st.floats(0.1, 20.0)),
        data=st.data(),
    )
    def test_table_matches_every_tree(self, network, tt, data):
        """Row r = the forward tree rooted at r, column r = the reverse one.

        ``tt`` 0 with no load makes every weight ``inf``; residual overrides
        and same-path loads exercise the Eq.-(3) denominator.  The oracle
        is the dict oracle, which shares no code with the table.
        """
        loads = data.draw(link_load_maps(network))
        caps = CapacityView(network)
        for name in network.link_names:
            if data.draw(st.booleans()):
                caps.override(name, "bandwidth", data.draw(st.floats(0.0, 50.0)))
        compiled = compile_network(network)
        weights = link_weights(compiled, link_residuals(compiled, caps), tt, loads)
        table = all_pairs_widths(compiled, weights)
        names = network.ncp_names
        for r, root in enumerate(names):
            for reverse in (False, True):
                tree = widest_path_tree_dict(
                    network, caps, root, tt, loads, reverse=reverse
                )
                got = table[:, r] if reverse else table[r, :]
                assert got.tolist() == [
                    tree.widths.get(v, -math.inf) for v in names
                ]


class TestFlooredSearch:
    """A commit route whose width the all-pairs table already holds is
    searched keeping only candidates at least that wide, over only the
    links at least that wide; it must find the same route as the full
    search and the dict oracle."""

    @SETTINGS
    @given(
        network=st.one_of(
            connected_networks(),
            connected_networks().map(as_directed),  # antiparallel pairs
            arbitrary_networks(),
        ),
        tt=st.one_of(st.just(0.0), st.floats(0.1, 20.0)),
        data=st.data(),
    )
    def test_floored_search_equals_full_search_and_oracle(self, network, tt, data):
        loads = data.draw(link_load_maps(network))
        caps = CapacityView(network)
        for name in network.link_names:
            if data.draw(st.booleans()):
                caps.override(name, "bandwidth", data.draw(_GRID))
        compiled = compile_network(network)
        weights = link_weights(compiled, link_residuals(compiled, caps), tt, loads)
        table = all_pairs_widths(compiled, weights)
        names = network.ncp_names
        for s, src in enumerate(names):
            for d, dst in enumerate(names):
                if s != d and math.isfinite(table[s, d]):
                    event(
                        "floor drops a link"
                        if (weights < table[s, d]).any()
                        else "floor keeps every link"
                    )
                floored = _point_search(
                    network, caps, src, dst, tt, loads, None, float(table[s, d])
                )
                assert floored == widest_path(network, caps, src, dst, tt, loads)
                ref = widest_path_dict(network, caps, src, dst, tt, loads)
                if ref is None:
                    assert floored is None
                else:
                    assert floored is not None
                    assert floored.links == ref.links
                    assert floored.bottleneck == ref.bottleneck

    def test_a_floor_above_the_true_width_trips_the_assertion(self):
        network = Network(
            "line", [NCP("a"), NCP("b"), NCP("c")],
            [Link("ab", "a", "b", 10.0), Link("bc", "b", "c", 4.0)],
        )
        caps = CapacityView(network)
        route = _point_search(network, caps, "a", "c", 1.0, {}, None, 4.0)
        assert route is not None and route.links == ("ab", "bc")
        with pytest.raises(AssertionError):
            _point_search(network, caps, "a", "c", 1.0, {}, None, 5.0)
