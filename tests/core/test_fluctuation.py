"""Unit tests for capacity-fluctuation handling (the paper's future work)."""

from __future__ import annotations

import pytest

from repro.core.network import star_network
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import CPU, linear_task_graph
from repro.exceptions import AdmissionError


def app(name: str, source: str = "ncp1", sink: str = "ncp2"):
    g = linear_task_graph(2, name=name, cpu_per_ct=1000.0, megabits_per_tt=2.0)
    return g.with_pins({"source": source, "sink": sink})


@pytest.fixture
def net():
    return star_network(4, hub_cpu=4000.0, leaf_cpu=2000.0, link_bandwidth=20.0)


class TestThrottling:
    def test_shrink_on_oversubscribed_link(self, net):
        scheduler = SparcleScheduler(net)
        decision = scheduler.submit_gr(GRRequest("gr", app("a"), min_rate=2.0))
        assert decision.accepted
        used_links = decision.placements[0].used_links()
        victim = sorted(used_links)[0]
        # Halve the bandwidth of one used link.
        report = scheduler.apply_capacity_change(
            {victim: {"bandwidth": net.link(victim).bandwidth / 100.0}}
        )
        assert report.gr_new_rates["gr"] < 2.0
        assert not report.gr_guarantee_met["gr"]
        assert report.violated_guarantees == ["gr"]
        assert 0.0 < report.throttle_factors["gr"] < 1.0

    def test_headroom_absorbs_small_changes(self, net):
        scheduler = SparcleScheduler(net)
        decision = scheduler.submit_gr(GRRequest("gr", app("a"), min_rate=0.5))
        assert decision.accepted
        # Reservations only used a sliver of the link; a mild trim is free.
        victim = sorted(decision.placements[0].used_links())[0]
        report = scheduler.apply_capacity_change(
            {victim: {"bandwidth": net.link(victim).bandwidth * 0.8}}
        )
        assert report.gr_guarantee_met["gr"]
        assert report.throttle_factors == {}

    def test_unrelated_element_change_is_harmless(self, net):
        scheduler = SparcleScheduler(net)
        scheduler.submit_gr(GRRequest("gr", app("a"), min_rate=0.5))
        report = scheduler.apply_capacity_change({"l4": {"bandwidth": 0.1}})
        assert report.gr_guarantee_met["gr"]

    def test_negative_capacity_rejected(self, net):
        scheduler = SparcleScheduler(net)
        with pytest.raises(AdmissionError, match="non-negative"):
            scheduler.apply_capacity_change({"l1": {"bandwidth": -1.0}})

    def test_unknown_element_rejected(self, net):
        scheduler = SparcleScheduler(net)
        from repro.exceptions import InvalidNetworkError

        with pytest.raises(InvalidNetworkError):
            scheduler.apply_capacity_change({"ghost": {"bandwidth": 1.0}})


class TestDownstreamEffects:
    def test_be_rates_reflect_new_capacity(self, net):
        scheduler = SparcleScheduler(net)
        decision = scheduler.submit_be(BERequest("be", app("b", "ncp3", "ncp4")))
        before = scheduler.allocate_be().app_rates["be"]
        # Find an element the BE placement loads and halve it.
        element = sorted(decision.placements[0].used_links())[0]
        # Cut deep enough that the link actually binds (CPU bound before).
        scheduler.apply_capacity_change(
            {element: {"bandwidth": net.link(element).bandwidth / 20.0}}
        )
        after = scheduler.allocate_be().app_rates["be"]
        assert after < before

    def test_later_arrivals_see_fluctuated_capacity(self, net):
        scheduler = SparcleScheduler(net)
        scheduler.apply_capacity_change({"hub": {CPU: 0.0}})
        decision = scheduler.submit_gr(GRRequest("gr", app("a"), min_rate=0.5))
        if decision.accepted:
            for placement in decision.placements:
                # The dead hub cannot host compute.
                loads = placement.loads().get("hub", {})
                assert loads.get(CPU, 0.0) == 0.0

    def test_withdraw_after_fluctuation_respects_override(self, net):
        scheduler = SparcleScheduler(net)
        decision = scheduler.submit_gr(GRRequest("gr", app("a"), min_rate=0.5))
        victim = sorted(decision.placements[0].used_links())[0]
        scheduler.apply_capacity_change({victim: {"bandwidth": 1.0}})
        scheduler.withdraw("gr")
        residual = scheduler.state().residual
        assert residual.get(victim, {}).get("bandwidth", None) == pytest.approx(1.0)

    def test_capacity_restoration_restores_rates(self, net):
        scheduler = SparcleScheduler(net)
        decision = scheduler.submit_gr(GRRequest("gr", app("a"), min_rate=2.0))
        victim = sorted(decision.placements[0].used_links())[0]
        original = net.link(victim).bandwidth
        report_down = scheduler.apply_capacity_change(
            {victim: {"bandwidth": original / 100.0}}
        )
        assert not report_down.gr_guarantee_met["gr"]
        # Restoring the capacity does not magically raise throttled
        # reservations (no migration/renegotiation), but the residual is
        # back, so a fresh submission can claim it.
        report_up = scheduler.apply_capacity_change(
            {victim: {"bandwidth": original}}
        )
        assert report_up.gr_new_rates["gr"] == pytest.approx(
            report_down.gr_new_rates["gr"]
        )
        retry = scheduler.submit_gr(GRRequest("gr2", app("c"), min_rate=1.0))
        assert retry.accepted
