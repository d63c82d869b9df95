"""Churn stress: 200 gateway arrivals interleaved with element failures.

A seeded burst of 200 mixed GR/BE requests is pushed through the
:class:`~repro.service.AdmissionGateway` in waves, while between epochs
network elements fail and recover under a :class:`RepairController` —
repairs rewrite reservations underneath the queue between the epochs
that evaluate and commit against the live state.

After every epoch and every element event the scheduler's residual is
compared against an independent from-scratch recompute (fresh capacities,
zeroed down elements, active GR reservations only).  A double-commit
or a repair/commit interleaving bug would diverge here immediately.  At
the end, every submitted request must have exactly one decision.
"""

from __future__ import annotations

import pytest

from repro.core.placement import CapacityView
from repro.core.repair import RepairController, RetryPolicy
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import BANDWIDTH, linear_task_graph
from repro.exceptions import BackpressureError
from repro.core.network import star_network
from repro.service import AdmissionGateway
from repro.utils.rng import ensure_rng

SEED = 404
TOTAL_REQUESTS = 200
WAVE = 20
TOLERANCE = 1e-6


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
            assert abs(got - value) <= TOLERANCE * max(1.0, abs(value)), (
                context, element, resource, got, value
            )


def _request(index: int, rng, n_leaves: int):
    src = f"ncp{1 + int(rng.integers(0, n_leaves))}"
    dst = src
    while dst == src:
        dst = f"ncp{1 + int(rng.integers(0, n_leaves))}"
    cpu = float(rng.uniform(100.0, 600.0))
    graph = linear_task_graph(
        3, cpu_per_ct=[cpu, cpu * 1.5, cpu * 0.5],
        megabits_per_tt=[1.0, 1.0, 0.5, 0.5],
    ).with_pins({"source": src, "sink": dst}, name=f"churn{index}")
    if rng.uniform(0.0, 1.0) < 0.6:
        return GRRequest(f"churn{index}", graph,
                         min_rate=float(rng.uniform(0.02, 0.3)), max_paths=2)
    return BERequest(f"churn{index}", graph,
                     priority=float(rng.choice([1.0, 2.0, 4.0])), max_paths=2)


@pytest.fixture(scope="module")
def churn_run():
    rng = ensure_rng(SEED)
    n_leaves = 6
    network = star_network(
        n_leaves, hub_cpu=50000.0, leaf_cpu=25000.0, link_bandwidth=60.0,
        link_failure_probability=0.05,
    )
    scheduler = SparcleScheduler(network)
    controller = RepairController(
        scheduler, policy=RetryPolicy(max_attempts=3, backoff_base=0.0)
    )
    gateway = AdmissionGateway(scheduler, max_queue_depth=WAVE)
    # Failable leaf links; the hub stays up so the network never partitions.
    links = sorted(link.name for link in network.links)
    tickets = {}
    shed = 0
    submitted = 0
    now = 0.0
    down: list[str] = []
    while submitted < TOTAL_REQUESTS:
        wave = 0
        while wave < WAVE and submitted < TOTAL_REQUESTS:
            request = _request(submitted, rng, n_leaves)
            submitted += 1
            wave += 1
            try:
                tickets[request.app_id] = gateway.submit(request)
            except BackpressureError:
                shed += 1
        # Fault injection between waves: fail or recover one leaf link.
        now += 1.0
        if down and rng.uniform(0.0, 1.0) < 0.5:
            element = down.pop(int(rng.integers(0, len(down))))
            controller.element_up(element, now)
            _assert_residual_consistent(scheduler, ("up", element, now))
        elif len(down) < 2:
            element = links[int(rng.integers(0, len(links)))]
            if element not in down:
                down.append(element)
                controller.element_down(element, now)
                _assert_residual_consistent(scheduler, ("down", element, now))
        # Drain the wave epoch by epoch, checking conservation each time.
        while gateway.queue_depth:
            gateway.run_epoch()
            _assert_residual_consistent(
                scheduler, ("epoch", gateway.epoch)
            )
    while down:
        element = down.pop()
        controller.element_up(element, now)
        _assert_residual_consistent(scheduler, ("final-up", element))
    return scheduler, gateway, tickets, shed, submitted


class TestGatewayChurn:
    def test_every_surviving_request_decided_once(self, churn_run):
        scheduler, gateway, tickets, shed, submitted = churn_run
        assert submitted == TOTAL_REQUESTS
        assert len(tickets) + shed == TOTAL_REQUESTS
        decided = [gateway.decision_for(t) for t in tickets.values()]
        assert all(d is not None for d in decided)
        # No double-commit: one decision per app id, queue fully drained.
        app_ids = [d.app_id for d in gateway.decisions]
        assert len(app_ids) == len(set(app_ids)) == len(tickets)
        assert gateway.queue_depth == 0
        assert gateway.stats.committed == len(tickets)
        assert gateway.stats.committed == gateway.stats.accepted + \
            gateway.stats.rejected

    def test_final_residual_consistent(self, churn_run):
        scheduler, *_ = churn_run
        _assert_residual_consistent(scheduler, "final")

    def test_decision_log_matches_gateway_log(self, churn_run):
        scheduler, gateway, tickets, *_ = churn_run
        logged = {d.app_id for d in scheduler.decisions}
        assert {d.app_id for d in gateway.decisions} <= logged
