"""Unit tests for scheduler withdrawal and outage reporting."""

from __future__ import annotations

import pytest

from repro.core.network import star_network
from repro.core.placement import CapacityView
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import linear_task_graph
from repro.exceptions import AdmissionError


def app(name: str, source: str, sink: str):
    g = linear_task_graph(3, name=name, cpu_per_ct=1000.0, megabits_per_tt=2.0)
    return g.with_pins({"source": source, "sink": sink})


@pytest.fixture
def net():
    return star_network(6, hub_cpu=8000.0, leaf_cpu=4000.0, link_bandwidth=40.0)


class TestWithdraw:
    def test_gr_withdraw_releases_capacity(self, net):
        scheduler = SparcleScheduler(net)
        scheduler.submit_gr(GRRequest("gr", app("a", "ncp1", "ncp2"), min_rate=1.0))
        before = scheduler.state().residual
        scheduler.withdraw("gr")
        after = scheduler.state().residual
        # All consumed capacity returned.
        for element, bucket in after.items():
            for resource, value in bucket.items():
                assert value >= before.get(element, {}).get(resource, 0.0)
        assert scheduler.state().gr_apps == ()

    def test_gr_withdraw_lets_new_app_in(self):
        tight = star_network(2, hub_cpu=4000.0, leaf_cpu=2000.0, link_bandwidth=20.0)
        scheduler = SparcleScheduler(tight)
        scheduler.submit_gr(GRRequest("big", app("a", "ncp1", "ncp2"), min_rate=2.0))
        blocked = scheduler.submit_gr(
            GRRequest("late", app("b", "ncp1", "ncp2"), min_rate=2.0, max_paths=2)
        )
        assert not blocked.accepted
        scheduler.withdraw("big")
        retried = scheduler.submit_gr(
            GRRequest("retry", app("c", "ncp1", "ncp2"), min_rate=2.0, max_paths=2)
        )
        assert retried.accepted

    def test_be_withdraw_removes_from_allocation(self, net):
        scheduler = SparcleScheduler(net)
        scheduler.submit_be(BERequest("a", app("a", "ncp1", "ncp2")))
        scheduler.submit_be(BERequest("b", app("b", "ncp3", "ncp4")))
        scheduler.withdraw("a")
        allocation = scheduler.allocate_be()
        assert set(allocation.app_rates) == {"b"}

    def test_unknown_app_rejected(self, net):
        with pytest.raises(AdmissionError, match="withdraw"):
            SparcleScheduler(net).withdraw("ghost")

    def test_app_id_reusable_after_withdraw(self, net):
        scheduler = SparcleScheduler(net)
        scheduler.submit_be(BERequest("x", app("a", "ncp1", "ncp2")))
        scheduler.withdraw("x")
        decision = scheduler.submit_be(BERequest("x", app("b", "ncp3", "ncp4")))
        assert decision.accepted


class TestResidualIsWithdrawIndependent:
    """The GR residual holds exactly the live tenants, whatever came and went.

    Every GR app is charged at commit at its reserved rate, a BE app at
    nothing, and after any withdraw the residual equals the live holds
    summed on a fresh view.
    """

    @staticmethod
    def _from_scratch(scheduler):
        view = CapacityView(scheduler.network)
        for app_id in scheduler.state().gr_apps:
            for record in scheduler.paths(app_id, "GR"):
                if record.active:
                    view.consume(record.placement.loads(), record.rate)
        return view.freeze()

    def test_residual_equals_rebuild_at_every_step(self, net):
        scheduler = SparcleScheduler(net)
        steps = [
            lambda: scheduler.submit_gr(
                GRRequest("gr", app("a", "ncp1", "ncp2"), min_rate=0.5)),
            lambda: scheduler.submit_be(
                BERequest("be", app("b", "ncp3", "ncp4"))),
            lambda: scheduler.submit_gr(
                GRRequest("gone", app("c", "ncp5", "ncp6"), min_rate=0.5)),
            lambda: scheduler.withdraw("gone"),
            lambda: scheduler.withdraw("be"),
        ]
        for step in steps:
            step()
            assert scheduler.residual_snapshot() == self._from_scratch(
                scheduler
            )

    def test_withdraw_leaves_untouched_elements_alone(self, net):
        scheduler = SparcleScheduler(net)
        scheduler.submit_gr(
            GRRequest("gr", app("a", "ncp1", "ncp2"), min_rate=0.5))
        snapshot = scheduler.residual_snapshot()
        scheduler.submit_be(BERequest("be", app("b", "ncp3", "ncp4")))
        assert scheduler.residual_snapshot() == snapshot
        gone = scheduler.submit_gr(
            GRRequest("gone", app("c", "ncp5", "ncp6"), min_rate=0.5))
        assert scheduler.residual_snapshot() != snapshot
        assert scheduler.withdraw("gone") == {
            element for p in gone.placements for element in p.loads()
        }
        # Nothing re-admitted: the residual is back where it was.
        assert scheduler.residual_snapshot() == snapshot
        # A BE app holds nothing: its departure touches no element.
        assert scheduler.withdraw("be") == frozenset()
        assert scheduler.residual_snapshot() == snapshot


class TestOutageReport:
    def test_outage_on_unused_element_is_harmless(self, net):
        scheduler = SparcleScheduler(net)
        decision = scheduler.submit_gr(
            GRRequest("gr", app("a", "ncp1", "ncp2"), min_rate=0.5))
        report = scheduler.qoe_under_outage({"l6"})  # leaf 6 unused by pins
        if "l6" not in {
            e for p in decision.placements for e in p.used_elements()
        }:
            assert report.gr_guarantee_met["gr"]

    def test_outage_on_pinned_link_breaks_guarantee(self, net):
        scheduler = SparcleScheduler(net)
        scheduler.submit_gr(GRRequest("gr", app("a", "ncp1", "ncp2"), min_rate=0.5))
        # Every path touches l1 (the pinned source's only link on a star).
        report = scheduler.qoe_under_outage({"l1"})
        assert not report.gr_guarantee_met["gr"]
        assert report.violated_guarantees == ["gr"]

    def test_be_rates_zero_when_paths_dead(self, net):
        scheduler = SparcleScheduler(net)
        scheduler.submit_be(BERequest("be", app("a", "ncp3", "ncp4")))
        report = scheduler.qoe_under_outage({"l3"})
        assert report.be_alive["be"] is False
        assert report.be_rates["be"] == 0.0

    def test_surviving_be_reallocated(self, net):
        scheduler = SparcleScheduler(net)
        scheduler.submit_be(BERequest("a", app("a", "ncp1", "ncp2")))
        scheduler.submit_be(BERequest("b", app("b", "ncp3", "ncp4")))
        report = scheduler.qoe_under_outage({"l3"})  # kills app b's source link
        assert report.be_alive["a"] is True
        assert report.be_alive["b"] is False
        assert report.be_rates["a"] > 0
        assert report.be_rates["b"] == 0.0

    def test_unknown_element_rejected(self, net):
        scheduler = SparcleScheduler(net)
        from repro.exceptions import InvalidNetworkError

        with pytest.raises(InvalidNetworkError):
            scheduler.qoe_under_outage({"nonexistent"})

    def test_empty_outage_keeps_everything(self, net):
        scheduler = SparcleScheduler(net)
        scheduler.submit_gr(GRRequest("gr", app("a", "ncp1", "ncp2"), min_rate=0.5))
        scheduler.submit_be(BERequest("be", app("b", "ncp3", "ncp4")))
        report = scheduler.qoe_under_outage(set())
        assert report.gr_guarantee_met["gr"]
        assert report.be_alive["be"]
        assert report.be_rates["be"] == pytest.approx(
            scheduler.allocate_be().app_rates["be"], rel=1e-6
        )
