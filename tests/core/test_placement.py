"""Unit tests for placements, load accounting, and capacity views."""

from __future__ import annotations

import math

import pytest

from repro.core.network import NCP, Link, Network
from repro.core.placement import QUANTUM, CapacityView, Placement, merge_loads
from repro.core.taskgraph import (
    BANDWIDTH,
    CPU,
    ComputationTask,
    TaskGraph,
    TransportTask,
)
from repro.exceptions import PlacementError


@pytest.fixture
def graph() -> TaskGraph:
    return TaskGraph(
        "g",
        [
            ComputationTask("src", {}, pinned_host="ncp1"),
            ComputationTask("w1", {CPU: 100.0}),
            ComputationTask("w2", {CPU: 200.0, "memory": 50.0}),
            ComputationTask("snk", {}, pinned_host="ncp3"),
        ],
        [
            TransportTask("t1", "src", "w1", 2.0),
            TransportTask("t2", "w1", "w2", 4.0),
            TransportTask("t3", "w2", "snk", 1.0),
        ],
    )


@pytest.fixture
def network() -> Network:
    return Network(
        "n",
        [
            NCP("ncp1", {CPU: 1000.0, "memory": 100.0}),
            NCP("ncp2", {CPU: 2000.0, "memory": 500.0}),
            NCP("ncp3", {CPU: 500.0}),
        ],
        [
            Link("l12", "ncp1", "ncp2", 10.0),
            Link("l23", "ncp2", "ncp3", 8.0),
        ],
    )


def good_placement(graph) -> Placement:
    return Placement(
        graph,
        {"src": "ncp1", "w1": "ncp1", "w2": "ncp2", "snk": "ncp3"},
        {"t1": (), "t2": ("l12",), "t3": ("l23",)},
    )


class TestLoads:
    def test_loads_accumulate_per_element(self, graph):
        p = good_placement(graph)
        loads = p.loads()
        assert loads["ncp1"][CPU] == 100.0
        assert loads["ncp2"][CPU] == 200.0
        assert loads["ncp2"]["memory"] == 50.0
        assert loads["l12"][BANDWIDTH] == 4.0
        assert loads["l23"][BANDWIDTH] == 1.0

    def test_colocated_tt_contributes_no_link_load(self, graph):
        p = good_placement(graph)
        assert "t1" in p.tt_routes and p.route("t1") == ()
        assert all(BANDWIDTH not in p.loads().get(e, {}) for e in ("ncp1",))

    def test_used_elements(self, graph):
        p = good_placement(graph)
        assert p.used_ncps() == frozenset({"ncp1", "ncp2", "ncp3"})
        assert p.used_links() == frozenset({"l12", "l23"})
        assert p.used_elements() == frozenset({"ncp1", "ncp2", "ncp3", "l12", "l23"})

    def test_merge_loads(self):
        merged = merge_loads(
            [{"a": {CPU: 1.0}}, {"a": {CPU: 2.0, "memory": 3.0}, "b": {CPU: 4.0}}]
        )
        assert merged == {"a": {CPU: 3.0, "memory": 3.0}, "b": {CPU: 4.0}}


class TestBottleneckRate:
    def test_rate_is_min_over_elements(self, graph, network):
        p = good_placement(graph)
        caps = CapacityView(network)
        # candidates: ncp1 1000/100=10, ncp2 cpu 2000/200=10,
        # ncp2 mem 500/50=10, l12 10/4=2.5, l23 8/1=8
        assert p.bottleneck_rate(caps) == pytest.approx(2.5)
        assert p.bottleneck_elements(caps) == ["l12"]

    def test_zero_capacity_for_required_resource_gives_zero_rate(self, graph, network):
        p = Placement(
            graph,
            {"src": "ncp1", "w1": "ncp1", "w2": "ncp3", "snk": "ncp3"},
            {"t1": (), "t2": ("l12", "l23"), "t3": ()},
        )
        # ncp3 has no memory capacity but w2 needs memory.
        assert p.bottleneck_rate(CapacityView(network)) == 0.0

    def test_loadless_placement_rate_is_infinite(self, network):
        g = TaskGraph(
            "empty",
            [ComputationTask("a", {}, pinned_host="ncp1"),
             ComputationTask("b", {}, pinned_host="ncp1")],
            [TransportTask("t", "a", "b", 0.0)],
        )
        p = Placement(g, {"a": "ncp1", "b": "ncp1"}, {"t": ()})
        assert math.isinf(p.bottleneck_rate(CapacityView(network)))

    def test_paper_example_rate_formula(self):
        """The Sec. IV-A worked example: x <= min over four elements."""
        g = TaskGraph(
            "paper",
            [
                ComputationTask("ct1", {}, pinned_host="ncp1"),
                ComputationTask("ct2", {}, pinned_host="ncp3"),
                ComputationTask("ct3", {CPU: 30.0}),
                ComputationTask("ct4", {CPU: 20.0}),
                ComputationTask("ct5", {}, pinned_host="ncp4"),
            ],
            [
                TransportTask("tt1", "ct1", "ct3", 5.0),
                TransportTask("tt2", "ct2", "ct3", 3.0),
                TransportTask("tt3", "ct3", "ct4", 1.0),
                TransportTask("tt4", "ct4", "ct5", 2.0),
            ],
        )
        net = Network(
            "n",
            [NCP("ncp1", {CPU: 100.0}), NCP("ncp2", {CPU: 100.0}),
             NCP("ncp3", {CPU: 100.0}), NCP("ncp4", {CPU: 100.0})],
            [Link("l1", "ncp1", "ncp2", 16.0), Link("l2", "ncp2", "ncp4", 10.0),
             Link("l6", "ncp3", "ncp1", 9.0)],
        )
        p = Placement(
            g,
            {"ct1": "ncp1", "ct2": "ncp3", "ct3": "ncp2", "ct4": "ncp2",
             "ct5": "ncp4"},
            {"tt1": ("l1",), "tt2": ("l6", "l1"), "tt3": (), "tt4": ("l2",)},
        )
        caps = CapacityView(net)
        expected = min(
            100.0 / (30.0 + 20.0),   # NCP2 hosting ct3+ct4
            10.0 / 2.0,              # L2 hosting tt4
            9.0 / 3.0,               # L6 hosting tt2
            16.0 / (5.0 + 3.0),      # L1 hosting tt1+tt2
        )
        assert p.bottleneck_rate(caps) == pytest.approx(expected)


class TestValidation:
    def test_good_placement_validates(self, graph, network):
        good_placement(graph).validate(network)

    def test_unplaced_ct_rejected(self, graph, network):
        p = Placement(graph, {"src": "ncp1"}, {})
        with pytest.raises(PlacementError, match="not placed"):
            p.validate(network)

    def test_pinned_host_enforced(self, graph, network):
        p = Placement(
            graph,
            {"src": "ncp2", "w1": "ncp1", "w2": "ncp2", "snk": "ncp3"},
            {"t1": ("l12",), "t2": ("l12",), "t3": ("l23",)},
        )
        with pytest.raises(PlacementError, match="pinned"):
            p.validate(network)

    def test_colocated_with_route_rejected(self, graph, network):
        p = Placement(
            graph,
            {"src": "ncp1", "w1": "ncp1", "w2": "ncp2", "snk": "ncp3"},
            {"t1": ("l12",), "t2": ("l12",), "t3": ("l23",)},
        )
        with pytest.raises(PlacementError, match="co-located"):
            p.validate(network)

    def test_split_hosts_with_empty_route_rejected(self, graph, network):
        p = Placement(
            graph,
            {"src": "ncp1", "w1": "ncp1", "w2": "ncp2", "snk": "ncp3"},
            {"t1": (), "t2": (), "t3": ("l23",)},
        )
        with pytest.raises(PlacementError, match="empty route"):
            p.validate(network)

    def test_discontiguous_route_rejected(self, graph, network):
        p = Placement(
            graph,
            {"src": "ncp1", "w1": "ncp1", "w2": "ncp2", "snk": "ncp3"},
            {"t1": (), "t2": ("l23",), "t3": ("l23",)},
        )
        with pytest.raises(PlacementError, match="not contiguous"):
            p.validate(network)

    def test_route_ending_elsewhere_rejected(self, graph, network):
        # t3 runs w2 (ncp2) -> snk (ncp3) but the route goes to ncp1.
        p = Placement(
            graph,
            {"src": "ncp1", "w1": "ncp1", "w2": "ncp2", "snk": "ncp3"},
            {"t1": (), "t2": ("l12",), "t3": ("l12",)},
        )
        with pytest.raises(PlacementError, match="ends at"):
            p.validate(network)


class TestCapacityView:
    def test_fresh_view_mirrors_network(self, network):
        caps = CapacityView(network)
        assert caps.capacity("ncp1", CPU) == 1000.0
        assert caps.capacity("l12", BANDWIDTH) == 10.0

    def test_consume_subtracts_rate_times_load(self, graph, network):
        caps = CapacityView(network)
        p = good_placement(graph)
        caps.consume(p.loads(), 2.0)
        assert caps.capacity("ncp1", CPU) == 1000.0 - 2.0 * 100.0
        assert caps.capacity("l12", BANDWIDTH) == 10.0 - 2.0 * 4.0

    def test_reserve_beyond_capacity_raises(self, graph, network):
        caps = CapacityView(network)
        caps.consume({"ncp1": {CPU: 100.0}}, 1.0)
        before = caps.freeze()
        loads = good_placement(graph).loads()
        with pytest.raises(PlacementError, match="exceeds residual"):
            caps.reserve([(loads, 1.0), (loads, 100.0)])
        assert caps.freeze() == before
        # Two holds that fit alone may not fit together.
        with pytest.raises(PlacementError, match="exceeds residual"):
            caps.reserve([(loads, 1.5), (loads, 1.2)])
        assert caps.freeze() == before
        caps.reserve([(loads, 1.0), (loads, 1.0)])
        assert caps.capacity("l12", BANDWIDTH) == 2.0

    def test_consume_never_refuses_and_the_residual_floors(self, graph, network):
        caps = CapacityView(network)
        loads = good_placement(graph).loads()
        caps.consume(loads, 100.0)
        assert caps.capacity("l12", BANDWIDTH) == 0.0
        assert caps.held("l12", BANDWIDTH) == round(100.0 * 4.0 / QUANTUM)
        caps.release(loads, 100.0)
        assert caps.capacity("l12", BANDWIDTH) == 10.0

    def test_release_restores_capacity(self, graph, network):
        caps = CapacityView(network)
        loads = good_placement(graph).loads()
        caps.consume(loads, 2.0)
        caps.consume(loads, 0.1)
        caps.release(loads, 2.0)
        caps.release(loads, 0.1)
        assert caps.capacity("ncp1", CPU) == 1000.0
        assert caps.capacity("l12", BANDWIDTH) == 10.0
        assert caps.freeze().entries == ()

    def test_release_cannot_mint_capacity(self, network):
        caps = CapacityView(network)
        caps.consume({"ncp2": {CPU: 100.0}}, 1.0)
        with pytest.raises(PlacementError, match="never held"):
            caps.release({"ncp2": {CPU: 100.0}, "ncp1": {CPU: 100.0}}, 1.0)
        assert caps.capacity("ncp1", CPU) == 1000.0
        assert caps.capacity("ncp2", CPU) == 1900.0

    def test_residual_is_capacity_minus_held_in_any_order(self, network):
        holds = [({"ncp1": {CPU: 0.1}}, 3.3), ({"ncp1": {CPU: 7.7}}, 0.9),
                 ({"ncp1": {CPU: 1.0 / 3.0}}, 11.0)]
        forward, backward = CapacityView(network), CapacityView(network)
        for loads, rate in holds:
            forward.consume(loads, rate)
        for loads, rate in reversed(holds):
            backward.consume(loads, rate)
        held = sum(round(rate * loads["ncp1"][CPU] / QUANTUM)
                   for loads, rate in holds)
        assert forward.held("ncp1", CPU) == backward.held("ncp1", CPU) == held
        assert forward.capacity("ncp1", CPU) == 1000.0 - held * QUANTUM
        assert forward.freeze() == backward.freeze()

    def test_override_sets_the_capacity_holds_draw_on(self, network):
        caps = CapacityView(network)
        caps.consume({"ncp1": {CPU: 100.0}}, 2.0)
        caps.override("ncp1", CPU, 0.0)
        assert caps.capacity("ncp1", CPU) == 0.0
        caps.override("ncp1", CPU, 500.0)
        assert caps.capacity("ncp1", CPU) == 300.0
        caps.release({"ncp1": {CPU: 100.0}}, 2.0)
        assert caps.freeze().entries == (("ncp1", CPU, 500.0),)
        # Back at the raw capacity, with nothing held, the entry leaves.
        caps.override("ncp1", CPU, 1000.0)
        assert caps.freeze().entries == ()

    def test_derived_views_hold_nothing(self, network):
        caps = CapacityView(network)
        caps.consume({"ncp1": {CPU: 100.0}}, 2.0)
        for derived in (caps.scaled({"ncp2": 0.5}),
                        CapacityView.from_snapshot(network, caps.freeze())):
            assert derived.held("ncp1", CPU) == 0
            assert derived.capacity("ncp1", CPU) == 800.0
            # A release there would mint capacity: nothing is held.
            with pytest.raises(PlacementError, match="never held"):
                derived.release({"ncp1": {CPU: 100.0}}, 2.0)
        assert caps.copy().held("ncp1", CPU) == caps.held("ncp1", CPU) > 0

    def test_scaled_applies_factors(self, network):
        caps = CapacityView(network).scaled({"ncp1": 0.5})
        assert caps.capacity("ncp1", CPU) == 500.0
        assert caps.capacity("ncp2", CPU) == 2000.0

    def test_scaled_rejects_bad_factor(self, network):
        with pytest.raises(PlacementError):
            CapacityView(network).scaled({"ncp1": 1.5})

    def test_copy_is_independent(self, network):
        caps = CapacityView(network)
        caps.consume({"ncp2": {CPU: 100.0, "memory": 1.0}}, 2.0)
        clone = caps.copy()
        assert clone.freeze() == caps.freeze()
        assert clone.snapshot() == caps.snapshot()
        assert clone.version == 0 < caps.version
        clone.consume({"ncp1": {CPU: 100.0}, "ncp2": {CPU: 100.0}}, 1.0)
        assert caps.capacity("ncp1", CPU) == 1000.0
        assert caps.capacity("ncp2", CPU) == 1800.0
        assert clone.capacity("ncp1", CPU) == 900.0
        assert clone.capacity("ncp2", CPU) == 1700.0
        caps.consume({"ncp2": {"memory": 1.0}}, 8.0)
        assert clone.capacity("ncp2", "memory") == 498.0
        assert caps.snapshot()["ncp2"] == {CPU: 1800.0, "memory": 490.0}

    def test_negative_rate_rejected(self, network):
        caps = CapacityView(network)
        with pytest.raises(PlacementError):
            caps.consume({}, -1.0)
        with pytest.raises(PlacementError):
            caps.release({}, -1.0)
