"""Unit tests for Algorithm 1 (widest-path routing)."""

from __future__ import annotations

import math

import pytest

from repro.core.network import (
    NCP,
    Link,
    Network,
    star_network,
)
from repro.core.placement import CapacityView
from repro.core.routing import (
    all_simple_routes,
    hop_shortest_path,
    validate_route,
    widest_path,
    widest_path_tree,
)
from repro.core.taskgraph import CPU
from repro.exceptions import InvalidNetworkError
from repro.perf import counters
from tests.routing_oracles import widest_path_dict


def diamond_net(bw_top=10.0, bw_bottom=4.0) -> Network:
    """Two parallel 2-hop routes between a and d."""
    return Network(
        "dn",
        [NCP("a", {CPU: 1.0}), NCP("b", {CPU: 1.0}), NCP("c", {CPU: 1.0}),
         NCP("d", {CPU: 1.0})],
        [
            Link("ab", "a", "b", bw_top),
            Link("bd", "b", "d", bw_top),
            Link("ac", "a", "c", bw_bottom),
            Link("cd", "c", "d", bw_bottom),
        ],
    )


class TestWidestPath:
    def test_picks_wider_route(self):
        net = diamond_net()
        route = widest_path(net, CapacityView(net), "a", "d", 2.0)
        assert route.links == ("ab", "bd")
        assert route.bottleneck == pytest.approx(10.0 / 2.0)

    def test_load_awareness_flips_choice(self):
        net = diamond_net(bw_top=10.0, bw_bottom=8.0)
        # Pre-load the top route so the bottom becomes wider.
        loads = {"ab": 8.0}
        route = widest_path(net, CapacityView(net), "a", "d", 2.0, loads)
        assert route.links == ("ac", "cd")
        assert route.bottleneck == pytest.approx(8.0 / 2.0)

    def test_consumed_capacity_flips_choice(self):
        net = diamond_net(bw_top=10.0, bw_bottom=8.0)
        caps = CapacityView(net)
        caps.consume({"bd": {"bandwidth": 9.0}}, 1.0)  # top residual 1 Mbps
        route = widest_path(net, caps, "a", "d", 2.0)
        assert route.links == ("ac", "cd")

    def test_same_node_is_free(self):
        net = diamond_net()
        route = widest_path(net, CapacityView(net), "a", "a", 2.0)
        assert route.links == ()
        assert math.isinf(route.bottleneck)

    def test_unreachable_returns_none(self):
        net = Network("split", [NCP("a"), NCP("b")], [])
        assert widest_path(net, CapacityView(net), "a", "b", 1.0) is None

    def test_zero_size_tt_has_infinite_weight_on_empty_links(self):
        net = diamond_net()
        route = widest_path(net, CapacityView(net), "a", "d", 0.0)
        assert route is not None
        assert math.isinf(route.bottleneck)

    def test_zero_bandwidth_path_still_returned(self):
        net = Network(
            "thin",
            [NCP("a"), NCP("b")],
            [Link("ab", "a", "b", 0.0)],
        )
        route = widest_path(net, CapacityView(net), "a", "b", 1.0)
        assert route.links == ("ab",)
        assert route.bottleneck == 0.0

    def test_matches_bruteforce_on_all_pairs(self):
        """Widest path equals brute force over all simple routes."""
        net = Network(
            "mesh",
            [NCP(n) for n in "abcde"],
            [
                Link("ab", "a", "b", 3.0), Link("bc", "b", "c", 7.0),
                Link("cd", "c", "d", 2.0), Link("de", "d", "e", 9.0),
                Link("ae", "a", "e", 4.0), Link("bd", "b", "d", 5.0),
            ],
        )
        caps = CapacityView(net)
        tt = 1.0
        for src in "abcde":
            for dst in "abcde":
                if src == dst:
                    continue
                routes = all_simple_routes(net, src, dst)
                best = max(
                    min(net.link(l).bandwidth / tt for l in r) for r in routes
                )
                result = widest_path(net, caps, src, dst, tt)
                assert result.bottleneck == pytest.approx(best), (src, dst)


class TestWidestPathTree:
    """The batched single-source search must mirror per-destination calls."""

    def mesh(self) -> Network:
        return Network(
            "mesh",
            [NCP(n) for n in "abcde"],
            [
                Link("ab", "a", "b", 3.0), Link("bc", "b", "c", 7.0),
                Link("cd", "c", "d", 2.0), Link("de", "d", "e", 9.0),
                Link("ae", "a", "e", 4.0), Link("bd", "b", "d", 5.0),
            ],
        )

    def test_matches_widest_path_per_destination(self):
        net = self.mesh()
        caps = CapacityView(net)
        loads = {"bc": 2.5, "ae": 1.0}
        for tt in (0.5, 1.0, 4.0):
            for root in "abcde":
                tree = widest_path_tree(net, caps, root, tt, loads)
                for dst in "abcde":
                    expected = widest_path(net, caps, root, dst, tt, loads)
                    got = tree.route_to(dst)
                    assert got == expected, (root, dst, tt)
                    assert tree.width_to(dst) == expected.bottleneck

    def test_root_is_free(self):
        net = self.mesh()
        tree = widest_path_tree(net, CapacityView(net), "a", 1.0)
        assert tree.width_to("a") == math.inf
        assert tree.route_to("a").links == ()

    def test_unreachable_nodes_absent(self):
        net = Network(
            "split",
            [NCP("a"), NCP("b"), NCP("c"), NCP("d")],
            [Link("ab", "a", "b", 5.0), Link("cd", "c", "d", 5.0)],
        )
        tree = widest_path_tree(net, CapacityView(net), "a", 1.0)
        assert tree.width_to("b") == pytest.approx(5.0)
        assert tree.width_to("c") is None
        assert tree.route_to("d") is None
        assert widest_path(net, CapacityView(net), "a", "c", 1.0) is None

    def test_reverse_tree_on_directed_network(self):
        """Reverse widths equal forward point-to-point widths into the root."""
        net = Network(
            "di",
            [NCP("a"), NCP("b"), NCP("c")],
            [
                Link("ab", "a", "b", 8.0),
                Link("bc", "b", "c", 3.0),
                Link("ca", "c", "a", 5.0),
            ],
            directed=True,
        )
        caps = CapacityView(net)
        tree = widest_path_tree(net, caps, "c", 1.0, reverse=True)
        for src in "ab":
            expected = widest_path(net, caps, src, "c", 1.0)
            assert tree.width_to(src) == expected.bottleneck, src
            route = tree.route_to(src)
            validate_route(net, src, "c", route.links)

    def test_reverse_equals_forward_on_undirected(self):
        net = self.mesh()
        caps = CapacityView(net)
        fwd = widest_path_tree(net, caps, "d", 2.0)
        rev = widest_path_tree(net, caps, "d", 2.0, reverse=True)
        assert dict(fwd.widths) == dict(rev.widths)


class TestHopShortestPath:
    def test_prefers_fewest_hops(self):
        net = diamond_net()
        extra = Network(
            "tri",
            [NCP("a"), NCP("b"), NCP("c")],
            [Link("ab", "a", "b", 1.0), Link("bc", "b", "c", 100.0),
             Link("ac", "a", "c", 0.5)],
        )
        route = hop_shortest_path(extra, "a", "c")
        assert route.links == ("ac",)
        assert route.bottleneck == 0.5
        route2 = hop_shortest_path(net, "a", "d")
        assert len(route2.links) == 2

    def test_unreachable_returns_none(self):
        net = Network("split", [NCP("a"), NCP("b")], [])
        assert hop_shortest_path(net, "a", "b") is None

    def test_same_node(self):
        net = diamond_net()
        assert hop_shortest_path(net, "a", "a").links == ()

    def test_routing_graph_is_built_once_and_reused(self):
        """The networkx graph is cached per Network, not rebuilt per call.

        ``network.routing_graph_build`` must tick exactly once per
        Network instance however many queries run against it, and
        ``network.routing_graph_reuse`` must count every later call.
        """
        from repro.perf import counters

        counters.reset()
        net = diamond_net()
        for _ in range(3):
            assert hop_shortest_path(net, "a", "d") is not None
        assert net.routing_graph() is net.routing_graph()
        assert counters.get("network.routing_graph_build") == 1
        assert counters.get("network.routing_graph_reuse") == 4
        # A different Network builds its own cache.
        other = diamond_net()
        hop_shortest_path(other, "a", "d")
        assert counters.get("network.routing_graph_build") == 2


class TestAllSimpleRoutes:
    def test_enumerates_both_routes(self):
        net = diamond_net()
        routes = all_simple_routes(net, "a", "d")
        assert set(routes) == {("ab", "bd"), ("ac", "cd")}

    def test_cutoff_limits_length(self):
        net = diamond_net()
        assert all_simple_routes(net, "a", "d", cutoff=1) == []

    def test_same_node_gives_empty_route(self):
        net = diamond_net()
        assert all_simple_routes(net, "a", "a") == [()]


class TestValidateRoute:
    def test_valid_route_passes(self):
        net = diamond_net()
        validate_route(net, "a", "d", ("ab", "bd"))

    def test_wrong_end_rejected(self):
        net = diamond_net()
        with pytest.raises(InvalidNetworkError, match="ends at"):
            validate_route(net, "a", "b", ("ab", "bd"))

    def test_repeated_link_rejected(self):
        net = diamond_net()
        with pytest.raises(InvalidNetworkError, match="repeats"):
            validate_route(net, "a", "a", ("ab", "ab"))


class TestOneKernel:
    """Every network, however small, routes on the compiled CSR kernel."""

    def _small(self):
        return star_network(7, hub_cpu=100.0, leaf_cpu=100.0,
                            link_bandwidth=10.0)  # 8 NCPs + 7 links = 15

    def test_small_network_routes_on_the_compiled_kernel(self):
        net = self._small()
        compiles = counters.get("arrays.compile_miss") + counters.get(
            "arrays.compile_hit"
        )
        widest_path(net, CapacityView(net), "ncp1", "ncp2", 1.0)
        assert (
            counters.get("arrays.compile_miss") + counters.get("arrays.compile_hit")
            == compiles + 1
        )

    def test_small_network_matches_the_oracle(self):
        net = self._small()
        view = CapacityView(net)
        assert widest_path(net, view, "ncp1", "ncp2", 1.0) == widest_path_dict(
            net, view, "ncp1", "ncp2", 1.0
        )
