"""Unit tests for the multi-application scheduler (Fig. 3 loop)."""

from __future__ import annotations

import pytest

from repro.core.network import star_network
from repro.core.scheduler import (
    BERequest,
    GRRequest,
    SparcleScheduler,
    admit_all_gr,
    scheduler_with_baseline,
)
from repro.core.taskgraph import linear_task_graph
from repro.exceptions import AdmissionError


def small_app(name: str = "app"):
    g = linear_task_graph(
        3, name=name, cpu_per_ct=1000.0, megabits_per_tt=2.0
    )
    return g.with_pins({"source": "ncp1", "sink": "ncp2"})


@pytest.fixture
def net():
    return star_network(4, hub_cpu=4000.0, leaf_cpu=2000.0, link_bandwidth=20.0)


@pytest.fixture
def failing_net():
    # Fully connected so that disjoint backup paths exist even with the
    # source/sink pinned (a star forces every path through the same two
    # links, capping availability at a single-path value).
    from repro.core.network import fully_connected_network

    return fully_connected_network(
        5, cpu=2000.0, link_bandwidth=20.0, link_failure_probability=0.02
    )


class TestRequestValidation:
    def test_be_request_bounds(self):
        for priority in (0.0, float("nan"), float("inf")):
            with pytest.raises(AdmissionError):
                BERequest("a", small_app(), priority=priority)
        with pytest.raises(AdmissionError):
            BERequest("a", small_app(), availability=1.5)
        with pytest.raises(AdmissionError):
            BERequest("a", small_app(), max_paths=0)

    def test_gr_request_bounds(self):
        for min_rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(AdmissionError):
                GRRequest("a", small_app(), min_rate=min_rate)
        with pytest.raises(AdmissionError):
            GRRequest("a", small_app(), min_rate=1.0,
                      min_rate_availability=float("nan"))
        with pytest.raises(AdmissionError):
            GRRequest("a", small_app(), min_rate=1.0, min_rate_availability=-0.1)


class TestGRAdmission:
    def test_simple_accept(self, net):
        sched = SparcleScheduler(net)
        decision = sched.submit_gr(GRRequest("gr1", small_app(), min_rate=0.1))
        assert decision.accepted
        assert decision.total_rate >= 0.1
        assert sched.state().gr_apps == ("gr1",)

    def test_reservation_shrinks_residual(self, net):
        sched = SparcleScheduler(net)
        first = sched.submit_gr(GRRequest("gr1", small_app("a"), min_rate=0.1))
        second = sched.submit_gr(GRRequest("gr2", small_app("b"), min_rate=0.1))
        assert first.accepted and second.accepted
        # With reservations the second app cannot beat the first's rate.
        assert second.path_rates[0] <= first.path_rates[0] + 1e-9

    def test_impossible_rate_rejected(self, net):
        sched = SparcleScheduler(net)
        decision = sched.submit_gr(
            GRRequest("gr1", small_app(), min_rate=1e9, max_paths=2)
        )
        assert not decision.accepted
        assert decision.reason
        assert sched.state().gr_apps == ()

    def test_rejection_releases_capacity(self, net):
        sched = SparcleScheduler(net)
        sched.submit_gr(GRRequest("big", small_app("a"), min_rate=1e9, max_paths=2))
        retry = sched.submit_gr(GRRequest("ok", small_app("b"), min_rate=0.1))
        assert retry.accepted

    def test_availability_needs_multiple_paths(self, failing_net):
        """One path gives ~0.96 availability; require more."""
        sched = SparcleScheduler(failing_net)
        decision = sched.submit_gr(
            GRRequest("gr1", small_app(), min_rate=0.05,
                      min_rate_availability=0.97, max_paths=4)
        )
        assert decision.accepted
        assert len(decision.placements) >= 2
        assert decision.availability >= 0.97

    def test_duplicate_id_rejected(self, net):
        sched = SparcleScheduler(net)
        sched.submit_gr(GRRequest("dup", small_app("a"), min_rate=0.1))
        with pytest.raises(AdmissionError, match="already submitted"):
            sched.submit_gr(GRRequest("dup", small_app("b"), min_rate=0.1))

    def test_admit_all_gr_totals(self, net):
        sched = SparcleScheduler(net)
        decisions, total = admit_all_gr(
            sched,
            [GRRequest("g1", small_app("a"), min_rate=0.05),
             GRRequest("g2", small_app("b"), min_rate=0.05)],
        )
        assert len(decisions) == 2
        assert total == pytest.approx(
            sum(d.total_rate for d in decisions if d.accepted)
        )


class TestBEAdmission:
    def test_simple_accept_and_allocation(self, net):
        sched = SparcleScheduler(net)
        decision = sched.submit_be(BERequest("be1", small_app()))
        assert decision.accepted
        allocation = sched.allocate_be()
        assert allocation.app_rates["be1"] > 0

    def test_priorities_shape_rates(self, net):
        sched = SparcleScheduler(net)
        sched.submit_be(BERequest("low", small_app("a"), priority=1.0))
        sched.submit_be(BERequest("high", small_app("b"), priority=3.0))
        allocation = sched.allocate_be()
        assert allocation.app_rates["high"] > allocation.app_rates["low"]

    def test_availability_loop_adds_paths(self, failing_net):
        sched = SparcleScheduler(failing_net)
        decision = sched.submit_be(
            BERequest("be1", small_app(), availability=0.97, max_paths=4)
        )
        assert decision.accepted
        assert len(decision.placements) >= 2
        assert decision.availability >= 0.97

    def test_unreachable_availability_rejected(self, failing_net):
        sched = SparcleScheduler(failing_net)
        decision = sched.submit_be(
            BERequest("be1", small_app(), availability=0.9999999, max_paths=1)
        )
        assert not decision.accepted
        with pytest.raises(AdmissionError):
            sched.allocate_be()

    def test_gr_reservation_limits_be(self):
        # Small star: the GR reservation exhausts the hub, squeezing BE.
        tight = star_network(2, hub_cpu=4000.0, leaf_cpu=2000.0, link_bandwidth=20.0)
        solo = SparcleScheduler(tight)
        solo.submit_be(BERequest("be", small_app("x")))
        solo_rate = solo.allocate_be().app_rates["be"]

        crowded = SparcleScheduler(tight)
        crowded.submit_gr(GRRequest("gr", small_app("a"), min_rate=0.1))
        crowded.submit_be(BERequest("be", small_app("x")))
        crowded_rate = crowded.allocate_be().app_rates["be"]
        assert crowded_rate < solo_rate

    def test_be_rate_lookup(self, net):
        sched = SparcleScheduler(net)
        sched.submit_be(BERequest("be1", small_app()))
        assert sched.be_rate("be1") > 0
        with pytest.raises(AdmissionError, match="no admitted BE app"):
            sched.be_rate("ghost")

    def test_allocation_without_apps_raises(self, net):
        with pytest.raises(AdmissionError, match="no admitted BE"):
            SparcleScheduler(net).allocate_be()


class TestArrivalOrderIndependence:
    def test_prediction_reduces_order_sensitivity(self, net):
        """Rates should match (approximately) regardless of arrival order."""
        a_first = SparcleScheduler(net)
        a_first.submit_be(BERequest("a", small_app("a"), priority=1.0))
        a_first.submit_be(BERequest("b", small_app("b"), priority=2.0))
        rates1 = a_first.allocate_be().app_rates

        b_first = SparcleScheduler(net)
        b_first.submit_be(BERequest("b", small_app("b"), priority=2.0))
        b_first.submit_be(BERequest("a", small_app("a"), priority=1.0))
        rates2 = b_first.allocate_be().app_rates

        # The Eq. (6) prediction cannot make placements literally
        # order-independent (Algorithm 2 is still greedy), but the relative
        # priority ordering must survive either arrival order and the rates
        # must stay within a moderate band.
        assert rates1["b"] > rates1["a"]
        assert rates2["b"] > rates2["a"]
        assert rates1["a"] == pytest.approx(rates2["a"], rel=0.5)
        assert rates1["b"] == pytest.approx(rates2["b"], rel=0.5)


class TestPluggableAssigner:
    def test_baseline_scheduler_runs(self, net):
        from repro.baselines import gs_assign

        sched = scheduler_with_baseline(net, gs_assign)
        decision = sched.submit_gr(GRRequest("gr", small_app(), min_rate=0.05))
        assert decision.accepted

    def test_non_callable_rejected(self, net):
        from repro.exceptions import SparcleError

        with pytest.raises(SparcleError):
            scheduler_with_baseline(net, "not-callable")

    def test_decisions_log(self, net):
        # The log is the caller's: each submit returns its decision and
        # the scheduler keeps no history of them.
        sched = SparcleScheduler(net)
        log = [
            sched.submit_gr(GRRequest("g", small_app("a"), min_rate=0.05)),
            sched.submit_be(BERequest("b", small_app("b"))),
        ]
        assert [d.kind for d in log] == ["GR", "BE"]
        assert [d.app_id for d in log] == ["g", "b"]
        for gone in ("decisions", "gr_decisions", "export_decisions"):
            assert not hasattr(sched, gone)
