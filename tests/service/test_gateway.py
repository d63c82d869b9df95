"""Unit tests for the batched admission gateway.

Covers the queue discipline (GR before BE, weighted FIFO within BE),
bounded-queue backpressure, one-epoch decisions for overlapping batches
(plus the shared queue's requeue backoff, which only the cross-region
lane uses), and the introspection surface (tickets, stats, epoch reports).
"""

from __future__ import annotations

import pytest

from repro.core.network import star_network
from repro.core.repair import RetryPolicy
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import linear_task_graph
from repro.exceptions import (
    AdmissionError,
    BackpressureError,
    GatewayError,
)
from repro.service import AdmissionGateway, EpochReport, GatewayStats
from repro.service.gateway import AdmissionQueue


def _graph(name: str, src: str = "ncp1", dst: str = "ncp2",
           cpu: float = 200.0):
    graph = linear_task_graph(
        3, cpu_per_ct=[cpu, cpu * 1.5, cpu * 0.5],
        megabits_per_tt=[1.0, 1.0, 0.5, 0.5],
    )
    return graph.with_pins({"source": src, "sink": dst}, name=name)


def _gr(app_id: str, *, rate: float = 0.1, src: str = "ncp1",
        dst: str = "ncp2") -> GRRequest:
    return GRRequest(app_id, _graph(app_id, src, dst), min_rate=rate,
                     max_paths=2)


def _be(app_id: str, *, priority: float = 1.0, src: str = "ncp3",
        dst: str = "ncp4") -> BERequest:
    return BERequest(app_id, _graph(app_id, src, dst), priority=priority,
                     max_paths=2)


def _commit_order(reports) -> list[str]:
    """App ids in the order the epochs handed their decisions over."""
    return [d.app_id for report in reports for _, d in report.decided]


@pytest.fixture
def network():
    return star_network(7, hub_cpu=60000.0, leaf_cpu=30000.0,
                        link_bandwidth=100.0)


@pytest.fixture
def scheduler(network):
    return SparcleScheduler(network)


class TestConstruction:
    def test_rejects_non_positive_queue_depth(self, scheduler):
        with pytest.raises(GatewayError, match="max_queue_depth"):
            AdmissionGateway(scheduler, max_queue_depth=0)

    def test_rejects_non_positive_batch_size(self, scheduler):
        with pytest.raises(GatewayError, match="batch_size"):
            AdmissionGateway(scheduler, batch_size=0)


class TestPriorityOrdering:
    def test_gr_class_commits_before_be(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        gateway.submit(_be("be1"))
        gateway.submit(_gr("gr1"))
        gateway.submit(_be("be2"))
        gateway.submit(_gr("gr2"))
        order = _commit_order(gateway.drain())
        assert order[:2] == ["gr1", "gr2"]
        assert set(order[2:]) == {"be1", "be2"}

    def test_weighted_fifo_within_be(self, scheduler):
        # Priority-4 arrivals advance 4x faster in virtual time than
        # priority-1 peers: with seqs 0..3 the w=4 requests (vt 0.25, 0.75)
        # beat the first w=1 request (vt 0).  Seq 0 at w=1 has vt 0 — ties
        # break by arrival, so "slow0" still leads.
        gateway = AdmissionGateway(scheduler)
        gateway.submit(_be("slow0", priority=1.0))
        gateway.submit(_be("fast1", priority=4.0))
        gateway.submit(_be("slow2", priority=1.0))
        gateway.submit(_be("fast3", priority=4.0))
        order = _commit_order(gateway.drain())
        assert order.index("fast1") < order.index("slow2")
        assert order.index("fast3") < order.index("slow2")

    def test_priority_order_helper_matches_gateway(self):
        requests = [
            _be("be-low", priority=1.0),
            _gr("gr-a"),
            _be("be-high", priority=8.0),
            _gr("gr-b"),
        ]
        ordered = AdmissionGateway.priority_order(requests)
        # GR class first; within BE, weighted FIFO virtual time seq/weight:
        # be-low arrived first (vt 0) so it still leads be-high (vt 2/8).
        assert [r.app_id for r in ordered] == [
            "gr-a", "gr-b", "be-low", "be-high",
        ]


class TestBackpressure:
    def test_full_queue_sheds_with_backpressure_error(self, scheduler):
        gateway = AdmissionGateway(scheduler, max_queue_depth=2)
        gateway.submit(_gr("a"))
        gateway.submit(_gr("b"))
        with pytest.raises(BackpressureError, match="queue full"):
            gateway.submit(_gr("c"))
        assert gateway.stats.backpressure_rejections == 1
        # Nothing was enqueued for the shed request.
        assert gateway.queue_depth == 2

    def test_queue_reopens_after_drain(self, scheduler):
        gateway = AdmissionGateway(scheduler, max_queue_depth=1)
        gateway.submit(_gr("a"))
        with pytest.raises(BackpressureError):
            gateway.submit(_gr("b"))
        gateway.drain()
        ticket = gateway.submit(_gr("c"))
        gateway.drain()
        assert gateway.decision_for(ticket) is not None

    def test_duplicate_app_ids_rejected_at_submit(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        gateway.submit(_gr("dup"))
        with pytest.raises(AdmissionError, match="already queued"):
            gateway.submit(_gr("dup"))
        gateway.drain()
        with pytest.raises(AdmissionError, match="already queued"):
            gateway.submit(_gr("dup"))


class TestConflictRetry:
    def test_overlapping_be_batch_is_decided_in_one_epoch(self, network):
        # All BE requests share the same endpoints, so every footprint
        # overlaps every other: each is still evaluated against the live
        # state and decided in the epoch that popped it.
        scheduler = SparcleScheduler(network)
        gateway = AdmissionGateway(scheduler)
        requests = [_be(f"be{i}") for i in range(5)]
        for request in requests:
            gateway.submit(request)
        report = gateway.run_epoch()
        assert report.batch == report.committed == len(requests)
        assert gateway.queue_depth == 0
        # One decision per request, no double-commit.
        order = _commit_order([report])
        assert len(order) == len(set(order)) == len(requests)

    def test_conflicted_request_backs_off_whole_epochs(self):
        # The requeue rule lives on the shared queue; the gateway itself
        # never conflicts, the coordinator's cross-region lane does.
        policy = RetryPolicy(max_attempts=3, backoff_base=1.0)
        queue = AdmissionQueue(policy)
        queue.push(_be("be0"), "BE", 1.0)
        (entry,) = queue.pop_batch(epoch=1)
        assert queue.requeue(entry, 1)
        resume = 1 + 1 + int(policy.delay(1))
        # A re-queued entry waits out its backoff in whole epochs.
        assert queue.pop_batch(epoch=resume - 1) == []
        assert queue.pop_batch(epoch=resume) == [entry]
        assert queue.requeue(entry, resume)
        later = resume + 1 + int(policy.delay(2))
        assert queue.pop_batch(epoch=later) == [entry]
        # Budget spent: the entry stays out and the caller decides it.
        assert not queue.requeue(entry, later)
        assert len(queue) == 0

    def test_every_submitted_request_gets_exactly_one_decision(self, network):
        scheduler = SparcleScheduler(network)
        gateway = AdmissionGateway(scheduler)
        mixed = [_gr(f"gr{i}") for i in range(4)] + [
            _be(f"be{i}") for i in range(4)
        ]
        decisions = gateway.process(mixed)
        assert [d.app_id for d in decisions] == [r.app_id for r in mixed]
        assert gateway.queue_depth == 0


class TestParallelEvaluation:
    def test_batch_size_caps_epoch_batches(self, scheduler):
        gateway = AdmissionGateway(scheduler, batch_size=2)
        for i in range(5):
            gateway.submit(_gr(f"gr{i}", rate=0.01))
        reports = gateway.drain()
        assert [r.batch for r in reports] == [2, 2, 1]


class TestIntrospection:
    def test_tickets_map_to_decisions(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        ticket = gateway.submit(_gr("a"))
        assert gateway.decision_for(ticket) is None
        gateway.drain()
        decision = gateway.decision_for(ticket)
        assert decision is not None and decision.app_id == "a"

    def test_epoch_report_counts_add_up(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        for i in range(3):
            gateway.submit(_gr(f"gr{i}"))
        report = gateway.run_epoch()
        assert isinstance(report, EpochReport)
        assert report.batch == 3
        assert report.accepted + report.rejected == report.committed
        assert report.queue_depth == gateway.queue_depth

    def test_epoch_report_hands_over_its_decisions(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        tickets = [gateway.submit(_be("b")), gateway.submit(_gr("a"))]
        report = gateway.run_epoch()
        # GR commits first; each pair is (ticket, decision).
        assert [t for t, _ in report.decided] == tickets[::-1]
        for ticket, decision in report.decided:
            assert gateway.decision_for(ticket) is decision

    def test_retire_drops_the_decision(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        ticket = gateway.submit(_gr("a"))
        gateway.drain()
        assert gateway.decisions_held == 1
        gateway.retire(ticket)
        assert gateway.decision_for(ticket) is None
        assert gateway.decisions_held == 0
        with pytest.raises(GatewayError, match="no decision held"):
            gateway.retire(ticket)

    def test_process_retires_what_it_returns(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        decisions = gateway.process([_gr("a"), _be("b")])
        assert [d.app_id for d in decisions] == ["a", "b"]
        assert gateway.decisions_held == 0
        assert not hasattr(gateway, "decisions")

    def test_stats_track_lifetime_totals(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        gateway.process([_gr("a"), _be("b")])
        stats = gateway.stats
        assert isinstance(stats, GatewayStats)
        assert stats.submitted == 2
        assert stats.committed == 2
        assert stats.accepted + stats.rejected == stats.committed
        assert stats.epochs >= 1

    def test_gateway_decisions_land_in_scheduler_state(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        decisions = gateway.process([_gr("a"), _be("b")])
        assert all(d.accepted for d in decisions)
        state = scheduler.state()
        assert (state.gr_apps, state.be_apps) == (("a",), ("b",))

    def test_gateway_emits_trace_events(self, scheduler):
        from repro.perf.tracing import Tracer, use_tracer

        tracer = Tracer()
        tracer.enable()
        with use_tracer(tracer):
            gateway = AdmissionGateway(scheduler)
            gateway.process([_gr("a")])
        kinds = tracer.kind_counts()
        assert kinds.get("gateway.epoch", 0) >= 1


class TestDrainAndProcessEdges:
    """Edge cases of drain(), process() and unknown-ticket lookups."""

    def test_drain_on_empty_queue_is_a_noop(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        assert gateway.drain() == []
        assert gateway.stats.epochs == 0

    def test_drain_empties_an_oversized_backlog(self, scheduler):
        gateway = AdmissionGateway(scheduler, batch_size=2)
        tickets = [gateway.submit(_gr(f"gr{i}", rate=0.01)) for i in range(7)]
        reports = gateway.drain()
        assert gateway.queue_depth == 0
        assert sum(r.batch for r in reports) == 7
        assert all(gateway.decision_for(t) is not None for t in tickets)

    def test_drain_twice_returns_nothing_new(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        gateway.submit(_gr("a"))
        first = gateway.drain()
        assert first and gateway.drain() == []

    def test_process_empty_request_list(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        assert gateway.process([]) == []
        assert gateway.stats.submitted == 0

    def test_process_returns_decisions_in_submission_order(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        requests = [_gr("g1"), _be("b1"), _gr("g2")]
        decisions = gateway.process(requests)
        assert [d.app_id for d in decisions] == ["g1", "b1", "g2"]

    def test_process_leaves_queue_empty(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        gateway.process([_gr("a"), _be("b")])
        assert gateway.queue_depth == 0

    def test_decision_for_unknown_ticket_is_none(self, scheduler):
        gateway = AdmissionGateway(scheduler)
        assert gateway.decision_for(0) is None
        assert gateway.decision_for(999) is None
        assert gateway.decision_for(-1) is None

    def test_decision_for_pending_ticket_is_none_until_committed(
        self, scheduler
    ):
        gateway = AdmissionGateway(scheduler)
        ticket = gateway.submit(_gr("a"))
        stranger = ticket + 1000
        assert gateway.decision_for(ticket) is None
        gateway.drain()
        assert gateway.decision_for(ticket) is not None
        assert gateway.decision_for(stranger) is None
