"""Batched admission gateway for bursty multi-application arrivals.

The Fig.-3 control loop admits applications one at a time.  The gateway
turns a burst of arrivals into a queue/batch problem, the way
R-Storm-style resource-aware schedulers and HEFT-style list schedulers
treat placement:

1. **Queue** — arrivals land in a bounded priority queue: Guaranteed-Rate
   requests ahead of Best-Effort, weighted FIFO within each class (a BE
   request with priority ``w`` advances ``w`` times faster than a
   priority-1 peer).  A full queue sheds load by raising
   :class:`~repro.exceptions.BackpressureError` — nothing is silently
   dropped.
2. **Evaluate → commit, one request at a time** — each epoch pops a
   batch in priority order and, per entry, evaluates it with
   :meth:`SparcleScheduler.evaluate` against the *live* scheduler and
   commits the proposal immediately, before the next entry is looked at.
   Nothing can go stale between a proposal and its commit, so there is
   no revalidation, no conflict, no requeue and no retry budget on this
   lane: every popped request is decided in the epoch that popped it.

**Decision equivalence.**  For *every* batch size the gateway's decisions
(accept set, placements, path rates) equal a :class:`SparcleScheduler`
fed :meth:`AdmissionGateway.priority_order` of each epoch's batch — the
paper's Fig.-3 loop run in the gateway's priority order (the property
test in ``tests/properties/test_gateway_properties.py`` checks exactly
this, on deliberately overlapping footprints).

The gateway is a single-threaded control loop: ``submit``/``run_epoch``/
``drain`` must be called from one thread.

:class:`AdmissionQueue` — the pending-entry type, the GR/BE classifier,
the priority pop with backoff and the :class:`RetryPolicy` requeue rule —
is also the queue of the sharded coordinator's cross-region lane
(:mod:`repro.service.shard`), so both lanes order identically; only that
lane, where two owners really race, requeues and retries.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.repair import RetryPolicy
from repro.core.scheduler import (
    BERequest,
    Decision,
    GRRequest,
    SparcleScheduler,
)
from repro.exceptions import (
    AdmissionError,
    BackpressureError,
    GatewayError,
)
from repro.perf import timer, tracing
from repro.perf.metrics import get_metrics

if TYPE_CHECKING:
    from repro.service.protocol import DecisionReply, SubmitRequest

#: Epochs a drain() is allowed to run before concluding the queue is stuck.
MAX_DRAIN_EPOCHS = 10_000


def classify_request(request: BERequest | GRRequest) -> tuple[str, float]:
    """The ``(kind, weight)`` queueing class of one request.

    GR requests all weigh 1; a BE request weighs its priority.  Raises
    :class:`AdmissionError` for anything that is not a request.
    """
    if isinstance(request, GRRequest):
        return "GR", 1.0
    if isinstance(request, BERequest):
        return "BE", request.priority
    raise AdmissionError(
        f"unsupported request type {type(request).__name__!r}"
    )


@dataclass
class PendingAdmission:
    """One queued request with its scheduling metadata."""

    seq: int
    request: BERequest | GRRequest
    kind: str  # "GR" or "BE"
    weight: float
    attempts: int = 0
    not_before_epoch: int = 0

    def sort_key(self) -> tuple[int, float, int]:
        """Priority-class, weighted-FIFO virtual time, then arrival order."""
        rank = 0 if self.kind == "GR" else 1
        return (rank, self.seq / self.weight, self.seq)


class AdmissionQueue:
    """The pending-admission priority queue both admission lanes share.

    Orders by :meth:`PendingAdmission.sort_key`, skips entries still
    backing off, and requeues conflicted entries under ``retry_policy``
    (whose backoff delay is measured in the caller's epochs).  The local
    lane never conflicts, so only the cross-region lane passes a policy.
    """

    def __init__(self, retry_policy: RetryPolicy | None = None) -> None:
        self.retry_policy = retry_policy or RetryPolicy()
        self._heap: list[tuple[tuple[int, float, int], PendingAdmission]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self, request: BERequest | GRRequest, kind: str, weight: float
    ) -> PendingAdmission:
        """Enqueue one classified arrival under the next arrival slot."""
        entry = PendingAdmission(self._seq, request, kind, weight)
        self._seq += 1
        heapq.heappush(self._heap, (entry.sort_key(), entry))
        return entry

    def pop_batch(
        self, epoch: int, limit: int | None = None
    ) -> list[PendingAdmission]:
        """Pop up to ``limit`` eligible entries in priority order.

        Entries whose backoff has not expired by ``epoch`` stay queued.
        """
        if limit is None:
            limit = len(self._heap)
        batch: list[PendingAdmission] = []
        deferred: list[tuple[tuple[int, float, int], PendingAdmission]] = []
        while self._heap and len(batch) < limit:
            key, entry = heapq.heappop(self._heap)
            if entry.not_before_epoch > epoch:
                deferred.append((key, entry))
                continue
            batch.append(entry)
        for item in deferred:
            heapq.heappush(self._heap, item)
        return batch

    def requeue(self, entry: PendingAdmission, epoch: int) -> bool:
        """Charge one conflict to ``entry`` and requeue it with backoff.

        Returns ``False`` — leaving the entry out of the queue — once its
        retry budget is spent: the caller must then decide it serially.
        """
        entry.attempts += 1
        if entry.attempts >= self.retry_policy.max_attempts:
            return False
        entry.not_before_epoch = epoch + 1 + int(
            self.retry_policy.delay(entry.attempts)
        )
        heapq.heappush(self._heap, (entry.sort_key(), entry))
        return True


@dataclass(frozen=True)
class EpochReport:
    """What one :meth:`AdmissionGateway.run_epoch` call did."""

    epoch: int
    batch: int
    committed: int
    accepted: int
    rejected: int
    queue_depth: int


@dataclass
class GatewayStats:
    """Running totals over the gateway's lifetime."""

    submitted: int = 0
    epochs: int = 0
    evaluated: int = 0
    committed: int = 0
    accepted: int = 0
    rejected: int = 0
    #: Always 0: nothing commits against a stale evaluation any more.
    #: ``bench/layers.py`` still reads the field; the bench-only follow-up
    #: that drops its ``gateway.overlap_commits`` row deletes it.
    overlap_commits: int = 0
    backpressure_rejections: int = 0


class AdmissionGateway:
    """Batched admission control in front of one scheduler.

    ``batch_size`` caps how many requests one epoch decides (default:
    everything queued).

    Usable as a context manager (there is nothing to release).
    """

    def __init__(
        self,
        scheduler: SparcleScheduler,
        *,
        max_queue_depth: int = 128,
        batch_size: int | None = None,
    ) -> None:
        if max_queue_depth < 1:
            raise GatewayError(
                f"max_queue_depth must be positive, got {max_queue_depth}"
            )
        if batch_size is not None and batch_size < 1:
            raise GatewayError(f"batch_size must be positive, got {batch_size}")
        self.scheduler = scheduler
        self.max_queue_depth = max_queue_depth
        self.batch_size = batch_size
        self.stats = GatewayStats()
        #: Decisions in commit order (the scheduler's log holds them too).
        self.decisions: list[Decision] = []
        self._queue = AdmissionQueue()
        self._pending_ids: set[str] = set()
        self._decision_by_seq: dict[int, Decision] = {}
        self._epoch = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "AdmissionGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """No-op: in-line evaluation holds no pool, thread or file."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for an epoch."""
        return len(self._queue)

    @property
    def epoch(self) -> int:
        """Epochs run so far."""
        return self._epoch

    def decision_for(self, ticket: int) -> Decision | None:
        """The decision for one :meth:`submit` ticket, if committed yet."""
        return self._decision_by_seq.get(ticket)

    def decision_reply(self, ticket: int) -> "DecisionReply | None":
        """The wire-typed decision for one ticket, if committed yet.

        The serving front-end pushes this form to network clients; it is
        :meth:`decision_for` rendered through the versioned protocol.
        """
        from repro.service.protocol import DecisionReply

        decision = self._decision_by_seq.get(ticket)
        if decision is None:
            return None
        return DecisionReply.from_decision(decision, seq=ticket)

    @staticmethod
    def priority_order(
        requests: Iterable[BERequest | GRRequest],
    ) -> list[BERequest | GRRequest]:
        """The gateway's commit order for a one-shot batch of requests.

        A serial baseline that submits in this order sees the same
        priority discipline the gateway applies (GR class first, weighted
        FIFO within class) — the order used by the decision-equivalence
        property and the benchmark.
        """
        entries = [
            PendingAdmission(seq, request, *classify_request(request))
            for seq, request in enumerate(requests)
        ]
        return [
            e.request for e in sorted(entries, key=PendingAdmission.sort_key)
        ]

    # ------------------------------------------------------------------
    # Arrival side
    # ------------------------------------------------------------------
    def submit(
        self, request: "BERequest | GRRequest | SubmitRequest"
    ) -> int:
        """Enqueue one arrival; returns a ticket for :meth:`decision_for`.

        Accepts the in-process request dataclasses and the wire-typed
        :class:`~repro.service.protocol.SubmitRequest` (converted via
        ``to_request()``), so network and in-process callers share one
        entry point.  Raises :class:`BackpressureError` when the bounded
        queue is full and :class:`AdmissionError` for duplicate app ids
        (already admitted or already queued).
        """
        from repro.service.protocol import SubmitRequest

        if isinstance(request, SubmitRequest):
            request = request.to_request()
        kind, weight = classify_request(request)
        if request.app_id in self._pending_ids or self.scheduler.has_app(
            request.app_id
        ):
            raise AdmissionError(
                f"app id {request.app_id!r} already queued or admitted"
            )
        if len(self._queue) >= self.max_queue_depth:
            self.stats.backpressure_rejections += 1
            metrics = get_metrics()
            metrics.incr("gateway.backpressure")
            tr = tracing.get_tracer()
            if tr.enabled:
                tr.event(
                    "gateway.backpressure",
                    app_id=request.app_id,
                    queue_depth=len(self._queue),
                )
            raise BackpressureError(
                f"gateway queue full ({self.max_queue_depth}); "
                f"request {request.app_id!r} shed"
            )
        entry = self._queue.push(request, kind, weight)
        self._pending_ids.add(request.app_id)
        self.stats.submitted += 1
        get_metrics().set_gauge("gateway.queue_depth", float(len(self._queue)))
        return entry.seq

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------
    def run_epoch(self) -> EpochReport:
        """Pop one batch and decide it, one evaluate → commit at a time.

        Returns an :class:`EpochReport`; an empty report (batch 0) means
        the queue was empty.
        """
        self._epoch += 1
        self.stats.epochs += 1
        metrics = get_metrics()
        metrics.incr("gateway.epochs")
        accepted = 0
        with timer("gateway.epoch"):
            batch = self._queue.pop_batch(self._epoch, self.batch_size)
            for entry in batch:
                # Evaluated against the live state and committed before
                # the next entry is looked at: nothing can go stale.
                decision = self.scheduler.commit(
                    self.scheduler.evaluate(entry.request)
                )
                accepted += decision.accepted
                self._record(entry, decision)
        metrics.set_gauge("gateway.queue_depth", float(len(self._queue)))
        report = EpochReport(
            epoch=self._epoch,
            batch=len(batch),
            committed=len(batch),
            accepted=accepted,
            rejected=len(batch) - accepted,
            queue_depth=len(self._queue),
        )
        tr = tracing.get_tracer()
        if tr.enabled:
            tr.event(
                "gateway.epoch",
                epoch=report.epoch,
                batch=report.batch,
                committed=report.committed,
                accepted=report.accepted,
                queue_depth=report.queue_depth,
            )
        return report

    def _record(self, entry: PendingAdmission, decision: Decision) -> None:
        self.stats.evaluated += 1
        self.stats.committed += 1
        if decision.accepted:
            self.stats.accepted += 1
        else:
            self.stats.rejected += 1
        self.decisions.append(decision)
        self._decision_by_seq[entry.seq] = decision
        self._pending_ids.discard(entry.request.app_id)

    # ------------------------------------------------------------------
    # Convenience drivers
    # ------------------------------------------------------------------
    def drain(self) -> list[EpochReport]:
        """Run epochs until the queue is empty; returns the epoch reports."""
        reports: list[EpochReport] = []
        for _ in range(MAX_DRAIN_EPOCHS):
            if not self._queue:
                return reports
            reports.append(self.run_epoch())
        raise GatewayError(
            f"drain did not converge within {MAX_DRAIN_EPOCHS} epochs "
            f"({len(self._queue)} requests still queued)"
        )

    def process(
        self, requests: Sequence[BERequest | GRRequest]
    ) -> list[Decision]:
        """Submit a burst and drain it; decisions in submission order."""
        tickets = [self.submit(request) for request in requests]
        self.drain()
        return [self._decision_by_seq[ticket] for ticket in tickets]
