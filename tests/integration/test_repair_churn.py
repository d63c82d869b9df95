"""Churn stress: hundreds of fail/recover events on the Fig.-4 testbed.

A long seeded alternating-renewal trace (~240 element events) drives the
repair controller while a GR and a BE application stream over the field
mesh.  After *every* event the scheduler's residual view is compared
against an independent from-scratch recompute (fresh capacities, zeroed
down elements, active reservations only) — any leak or double-free across
the fail/repair cycles would accumulate and diverge.  At the end, the
``repair.*`` perf counters must show the retry budget actually bounded the
work done.
"""

from __future__ import annotations

import pytest

from repro.core.placement import CapacityView
from repro.core.repair import RepairController, RetryPolicy
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import BANDWIDTH
from repro.perf import counters
from repro.simulator.failures import failure_timeline
from repro.workloads.facedetect import face_detection_graph, testbed_network

PF = 0.10
DURATION = 600.0
MEAN_CYCLE = 30.0
SEED = 23
MIN_RATE = 0.25
POLICY = RetryPolicy(max_attempts=3, backoff_base=2.0)


def _scratch_residual(scheduler) -> dict:
    """The residual recomputed independently from first principles."""
    network = scheduler.network
    view = CapacityView(network)
    resources = set(network.resources()) | {BANDWIDTH}
    for element in scheduler.down_elements:
        for resource in resources:
            if view.capacity(element, resource) > 0:
                view.override(element, resource, 0.0)
    for app_id in scheduler.state().gr_apps:
        for record in scheduler.paths(app_id, "GR"):
            if record.active:
                view.consume(record.placement.loads(), record.rate)
    return view.snapshot()


def _assert_residual_consistent(scheduler, context) -> None:
    expected = _scratch_residual(scheduler)
    actual = scheduler.state().residual
    assert set(actual) == set(expected), context
    for element, bucket in expected.items():
        for resource, value in bucket.items():
            got = actual[element][resource]
            assert abs(got - value) <= 1e-6 * max(1.0, abs(value)), (
                context, element, resource, got, value
            )


@pytest.fixture(scope="module")
def churn_run():
    counters.reset()
    network = testbed_network(10.0, link_failure_probability=PF)
    scheduler = SparcleScheduler(network)
    decision = scheduler.submit_gr(
        GRRequest("face", face_detection_graph(), min_rate=MIN_RATE,
                  max_paths=2)
    )
    assert decision.accepted, decision.reason
    be = scheduler.submit_be(
        BERequest("telemetry", face_detection_graph(name="telemetry"),
                  priority=1.0, max_paths=2)
    )
    assert be.accepted, be.reason
    controller = RepairController(scheduler, policy=POLICY)
    timeline = failure_timeline(
        network, DURATION, mean_cycle=MEAN_CYCLE, rng=SEED
    )
    assert len(timeline) >= 200  # the stress bar: ~200+ element events
    ticks = 0
    index = 0
    while True:
        next_event = timeline[index][0] if index < len(timeline) else None
        next_retry = controller.next_retry_time()
        candidates = [
            t for t in (next_event, next_retry)
            if t is not None and t < DURATION
        ]
        if not candidates:
            break
        now = min(candidates)
        if next_retry is not None and next_retry <= now:
            controller.tick(now)
            ticks += 1
            _assert_residual_consistent(scheduler, ("tick", now))
        if next_event is not None and next_event == now:
            _, element, kind = timeline[index]
            index += 1
            if kind == "down":
                controller.element_down(element, now)
            else:
                controller.element_up(element, now)
            _assert_residual_consistent(scheduler, (kind, element, now))
    return scheduler, controller, len(timeline), ticks


class TestChurn:
    def test_survives_all_events(self, churn_run):
        scheduler, controller, n_events, _ = churn_run
        assert counters.get("repair.element_down_events") + counters.get(
            "repair.element_up_events"
        ) == n_events

    def test_final_residual_consistent(self, churn_run):
        scheduler, *_ = churn_run
        _assert_residual_consistent(scheduler, "final")

    def test_apps_still_admitted(self, churn_run):
        scheduler, *_ = churn_run
        state = scheduler.state()
        assert state.gr_apps == ("face",)
        assert state.be_apps == ("telemetry",)

    def test_repair_work_bounded(self, churn_run):
        """The retry budget caps attempts: at most one per degraded app per
        controller invocation (event or due tick)."""
        scheduler, controller, n_events, ticks = churn_run
        n_apps = 2
        invocations = n_events + ticks
        assert counters.get("repair.attempts") <= n_apps * invocations
        assert counters.get("repair.paths_replaced") <= counters.get(
            "repair.attempts"
        ) * 2  # _repair_one adds at most max_paths=2 paths per attempt

    def test_counters_and_gauges_recorded(self, churn_run):
        assert counters.get("repair.paths_suspended") > 0
        assert counters.get("repair.paths_restored") > 0
        assert counters.gauge("repair.capacity_released") > 0.0
        assert counters.gauge("repair.capacity_restored") > 0.0
        assert counters.timer_stats("repair.element_down").calls > 0
        assert counters.timer_stats("repair.element_up").calls > 0

    def test_capacity_books_balance(self, churn_run):
        """Released capacity is eventually matched by restores/replacements
        — within the slack of outages still open at the end of the trace."""
        released = counters.gauge("repair.capacity_released")
        restored = counters.gauge("repair.capacity_restored")
        assert released > 0
        assert restored <= released + 1e-6
