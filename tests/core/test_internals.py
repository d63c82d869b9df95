"""Targeted tests for smaller internal behaviours across core modules."""

from __future__ import annotations

import math

import pytest

from repro.core.assignment import _State, sparcle_assign
from repro.core.network import NCP, Link, Network
from repro.core.placement import CapacityView, Placement
from repro.core.scheduler import Decision
from repro.core.taskgraph import (
    CPU,
    ComputationTask,
    TaskGraph,
    TransportTask,
    linear_task_graph,
)
from repro.experiments.base import safe_rate
from tests.routing_oracles import link_weight


@pytest.fixture
def state(star8, pinned_diamond):
    return _State(pinned_diamond, star8, CapacityView(star8))


class TestStateHelpers:
    def test_cheapest_tt_picks_min_megabits(self):
        g = TaskGraph(
            "g",
            [ComputationTask("a"), ComputationTask("b"), ComputationTask("c")],
            [TransportTask("fat", "a", "b", 10.0),
             TransportTask("thin", "b", "c", 1.0)],
        )
        # G(a, c) spans both TTs; the thin one is the probe.
        assert g.cheapest_tt_between("a", "c").name == "thin"
        assert g.cheapest_tt_between("c", "a").name == "thin"
        assert g.cheapest_tt_between("a", "b").name == "fat"

    def test_cheapest_tt_none_for_unrelated(self):
        g = TaskGraph(
            "w",
            [ComputationTask("s"), ComputationTask("x"), ComputationTask("y")],
            [TransportTask("sx", "s", "x", 1.0), TransportTask("sy", "s", "y", 1.0)],
        )
        assert g.cheapest_tt_between("x", "y") is None

    def test_compute_only_gamma_ignores_links(self, state):
        # hub: 6000 MHz; ct2 requires 3000 -> 2.0 regardless of link loads.
        state.link_loads["l1"] = 1e9
        assert state.compute_only_gamma("ct2", "hub") == pytest.approx(2.0)

    def test_gamma_infinite_for_free_ct_on_empty_host(self, star8):
        g = TaskGraph("z", [ComputationTask("a"), ComputationTask("b")],
                      [TransportTask("t", "a", "b", 1.0)])
        s = _State(g, star8, CapacityView(star8))
        assert math.isinf(s.gamma_row("a")[s._compiled.node_index["hub"]])

    def test_commit_rejects_double_placement(self, state):
        state.commit("ct2", "hub")
        from repro.exceptions import PlacementError

        with pytest.raises(PlacementError, match="already placed"):
            state.commit("ct2", "ncp3")


class TestLinkWeight:
    def test_weight_formula(self, triangle_network):
        caps = CapacityView(triangle_network)
        # l12: 10 Mbps; TT 2 Mb with 3 Mb already there -> 10/5.
        assert link_weight(
            triangle_network, caps, "l12", 2.0, {"l12": 3.0}
        ) == pytest.approx(2.0)

    def test_zero_demand_is_infinite(self, triangle_network):
        caps = CapacityView(triangle_network)
        assert math.isinf(
            link_weight(triangle_network, caps, "l12", 0.0, {})
        )


class TestBottleneckElements:
    def test_multiple_simultaneous_bottlenecks(self):
        net = Network(
            "n",
            [NCP("a", {CPU: 100.0}), NCP("b", {CPU: 100.0})],
            [Link("ab", "a", "b", 100.0)],
        )
        g = TaskGraph(
            "g",
            [ComputationTask("x", {CPU: 10.0}), ComputationTask("y", {CPU: 10.0})],
            [TransportTask("t", "x", "y", 10.0)],
        )
        p = Placement(g, {"x": "a", "y": "b"}, {"t": ("ab",)})
        # a: 10, b: 10, ab: 10 -> all bind at rate 10.
        assert p.bottleneck_elements(CapacityView(net)) == ["a", "ab", "b"]

    def test_no_bottleneck_for_loadless(self):
        net = Network("n", [NCP("a", {CPU: 1.0})], [])
        g = TaskGraph("g", [ComputationTask("x", {})], [])
        p = Placement(g, {"x": "a"}, {})
        assert p.bottleneck_elements(CapacityView(net)) == []


class TestDecision:
    def test_total_rate_sums_paths(self):
        d = Decision("a", "GR", True, path_rates=(1.0, 2.5))
        assert d.total_rate == pytest.approx(3.5)

    def test_rejected_decision_defaults(self):
        d = Decision("a", "BE", False, reason="why")
        assert d.total_rate == 0.0
        assert d.placements == ()


class TestSafeRate:
    def test_passes_through_success(self, star8):
        g = linear_task_graph(1, cpu_per_ct=100.0, megabits_per_tt=1.0)
        g = g.with_pins({"source": "ncp1", "sink": "ncp2"})
        assert safe_rate(sparcle_assign, g, star8) > 0

    def test_maps_infeasible_to_zero(self):
        g = linear_task_graph(1).with_pins({"source": "a", "sink": "b"})
        net = Network("split", [NCP("a", {CPU: 1.0}), NCP("b", {CPU: 1.0})], [])
        assert safe_rate(sparcle_assign, g, net) == 0.0


class TestReprs:
    def test_reprs_are_informative(self, star8, pinned_diamond):
        assert "diamond" in repr(pinned_diamond)
        assert "|N|=8" in repr(star8)
        result = sparcle_assign(pinned_diamond, star8)
        text = repr(result.placement)
        assert "hosts=" in text and "routes=" in text
        assert "CapacityView" in repr(CapacityView(star8))
