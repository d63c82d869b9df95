"""In-process replays: the reference for the output check and the traced run.

Two replays of the same request stream, both serial (one request decided
before the next is sent, the oldest live app withdrawn above the cap):

* :func:`pipeline_replay` does, in this process, exactly what the server
  does per request — ``encode`` -> ``parse_request`` -> ``to_request`` ->
  ``ShardCoordinator.submit`` -> ``run_epoch`` -> ``decision_reply`` ->
  ``encode`` -> ``decode`` — optionally recording a span around each call;
* :func:`serial_replay` drives one ``SparcleScheduler`` through
  ``evaluate``/``commit``/``withdraw``: the single-threaded baseline and the
  independent reference the one-shard wire runs must equal.

Every layer is measured from outside through public functions; the
program's own tracer stays off.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.arrays import compile_network
from repro.core.assignment import AssignmentResult, sparcle_assign
from repro.core.availability import PathProfile, min_rate_availability
from repro.core.network import Network
from repro.core.placement import CapacityView
from repro.core.routing import widest_path, widest_path_tree
from repro.core.scheduler import GRRequest, SparcleScheduler
from repro.core.taskgraph import TaskGraph
from repro.emulator.scenario import network_from_dict, network_to_dict
from repro.perf import counters
from repro.service.gateway import AdmissionGateway
from repro.service.protocol import (
    DecisionReply,
    SubmitRequest,
    decode,
    encode,
    parse_request,
)
from repro.service.shard import (
    FederationStats,
    ShardCoordinator,
    ShardEventLog,
    replay_log,
)

from stats import median, percentile
from workloads import Inputs

#: Epochs one in-process request may need (cross-shard requeue backoff).
_MAX_EPOCHS_PER_REQUEST = 100


def replay_cap(inputs: Inputs) -> int:
    """Live apps the serial replays hold: what the wire drive holds."""
    workload = inputs.workload
    if workload.loop == "open":
        return int(round(workload.arrival_rate * workload.hold_s))
    return workload.live_cap * workload.connections


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder: (name, start, end, parent, request id)."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, float, float, int, str]] = []
        self._stack: list[int] = []
        self._request = ""

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        if request is not None:
            self._request = request
        parent = self._stack[-1] if self._stack else -1
        index = len(self.rows)
        self.rows.append(("", 0.0, 0.0, -1, ""))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.rows[index] = (name, start, end, parent, self._request)

    def wrap(self, assigner: Callable[..., AssignmentResult]):
        """The assigner with a span around every call."""

        def traced(graph: TaskGraph, network: Network, view: CapacityView):
            with self.span("assignment.sparcle_assign"):
                return assigner(graph, network, view)

        return traced

    # -- analysis ------------------------------------------------------
    def durations_ms(self, name: str) -> list[float]:
        return [(e - s) * 1e3 for n, s, e, _, _ in self.rows if n == name]

    def p50_us(self, name: str) -> float:
        return median(self.durations_ms(name)) * 1e3

    def child_ms(self) -> dict[int, float]:
        """Span index -> milliseconds covered by its direct children."""
        covered: dict[int, float] = {}
        for _, start, end, parent, _ in self.rows:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start) * 1e3
        return covered

    def self_ms(self, name: str) -> list[float]:
        """Per span of ``name``: its duration minus its children's."""
        covered = self.child_ms()
        return [
            (e - s) * 1e3 - covered.get(i, 0.0)
            for i, (n, s, e, _, _) in enumerate(self.rows)
            if n == name
        ]

    def coverage(self, root: str) -> tuple[float, float]:
        """(children / root time over the run, share of roots within 5 %)."""
        covered = self.child_ms()
        total = inside = 0.0
        close = count = 0
        for i, (n, s, e, _, _) in enumerate(self.rows):
            if n != root:
                continue
            dur = (e - s) * 1e3
            kids = covered.get(i, 0.0)
            total += dur
            inside += kids
            count += 1
            close += kids >= 0.95 * dur
        return (inside / total if total else 0.0,
                close / count if count else 0.0)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "request"],
             "spans": self.rows}
        ))


class _NoSpans:
    """The untraced pass: same call shape, nothing recorded."""

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        yield

    def wrap(self, assigner):
        return assigner


# ----------------------------------------------------------------------
# The server's pipeline, in process
# ----------------------------------------------------------------------
@dataclass
class PipelineResult:
    decisions: list[DecisionReply]
    wall_s: float
    submit_bytes: list[int]
    decision_bytes: list[int]
    stats: FederationStats


def pipeline_replay(
    inputs: Inputs,
    requests: list[SubmitRequest],
    log_dir: Path,
    spans: Spans | None = None,
) -> PipelineResult:
    """Decide ``requests`` one by one through the coordinator pipeline."""
    tracer = spans if spans is not None else _NoSpans()
    cap = replay_cap(inputs)
    decisions: list[DecisionReply] = []
    submit_bytes: list[int] = []
    decision_bytes: list[int] = []
    live: deque[str] = deque()
    began = time.perf_counter()
    with ShardCoordinator(
        inputs.network,
        n_shards=inputs.workload.shards,
        assigner=tracer.wrap(sparcle_assign),
        log_dir=log_dir,
    ) as coordinator:
        for seq, request in enumerate(requests, start=1):
            with tracer.span("request", request.app_id):
                with tracer.span("protocol.encode_submit"):
                    line = encode(dataclasses.replace(request, seq=seq))
                with tracer.span("protocol.parse_submit"):
                    inner = parse_request(line).to_request()
                with tracer.span("shard.submit"):
                    ticket = coordinator.submit(inner)
                with tracer.span("shard.run_epoch"):
                    for _ in range(_MAX_EPOCHS_PER_REQUEST):
                        coordinator.run_epoch()
                        if coordinator.decision_for(ticket) is not None:
                            break
                with tracer.span("protocol.encode_decision"):
                    out = encode(coordinator.decision_reply(ticket))
                with tracer.span("protocol.decode_decision"):
                    reply = decode(out)
            assert isinstance(reply, DecisionReply)
            decisions.append(reply)
            submit_bytes.append(len(line))
            decision_bytes.append(len(out))
            if reply.accepted:
                live.append(request.app_id)
                if len(live) > cap:
                    victim = live.popleft()
                    with tracer.span("withdraw", victim):
                        with tracer.span("shard.withdraw"):
                            coordinator.withdraw(victim)
        stats = coordinator.stats
    return PipelineResult(
        decisions=decisions,
        wall_s=time.perf_counter() - began,
        submit_bytes=submit_bytes,
        decision_bytes=decision_bytes,
        stats=stats,
    )


# ----------------------------------------------------------------------
# The serial scheduler
# ----------------------------------------------------------------------
@dataclass
class SerialResult:
    """Per-request observations of one ``SparcleScheduler`` replay."""

    scheduler: SparcleScheduler  # in its end-of-replay state
    accepted: list[bool] = field(default_factory=list)
    path_rates: list[tuple[float, ...]] = field(default_factory=list)
    evaluate_ms: list[float] = field(default_factory=list)
    assign_ms: list[float] = field(default_factory=list)  # per request
    assign_calls: list[int] = field(default_factory=list)
    commit_ms: list[float] = field(default_factory=list)
    withdraw_ms: list[float] = field(default_factory=list)
    #: (request, placements, rates) of accepted GR apps, for Eq. (7) replay
    gr_accepts: list[tuple[GRRequest, tuple, tuple[float, ...]]] = field(
        default_factory=list
    )
    wall_s: float = 0.0


def serial_replay(
    inputs: Inputs, requests: list[SubmitRequest]
) -> SerialResult:
    """Decide ``requests`` through evaluate/commit/withdraw, timing each."""
    spent = [0.0, 0]

    def timed_assign(graph: TaskGraph, network: Network, view: CapacityView):
        start = time.perf_counter()
        try:
            return sparcle_assign(graph, network, view)
        finally:
            spent[0] += time.perf_counter() - start
            spent[1] += 1

    scheduler = SparcleScheduler(inputs.network, assigner=timed_assign)
    out = SerialResult(scheduler)
    cap = replay_cap(inputs)
    live: deque[str] = deque()
    began = time.perf_counter()
    for request in requests:
        inner = request.to_request()
        spent[0], spent[1] = 0.0, 0
        t0 = time.perf_counter()
        proposal = scheduler.evaluate(inner)
        t1 = time.perf_counter()
        decision = scheduler.commit(proposal)
        t2 = time.perf_counter()
        out.accepted.append(decision.accepted)
        out.path_rates.append(tuple(float(r) for r in decision.path_rates))
        out.evaluate_ms.append((t1 - t0) * 1e3)
        out.commit_ms.append((t2 - t1) * 1e3)
        out.assign_ms.append(spent[0] * 1e3)
        out.assign_calls.append(spent[1])
        if decision.accepted:
            if isinstance(inner, GRRequest):
                out.gr_accepts.append(
                    (inner, decision.placements, decision.path_rates)
                )
            live.append(request.app_id)
            if len(live) > cap:
                t3 = time.perf_counter()
                scheduler.withdraw(live.popleft())
                out.withdraw_ms.append((time.perf_counter() - t3) * 1e3)
    out.wall_s = time.perf_counter() - began
    return out


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _budgeted(seconds: float) -> Callable[[], bool]:
    """``more()`` stays true until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    return lambda: time.perf_counter() < deadline


def protocol_metrics(spans: Spans, result: PipelineResult) -> dict[str, float]:
    return {
        "protocol.encode_submit_us": spans.p50_us("protocol.encode_submit"),
        "protocol.parse_submit_us": spans.p50_us("protocol.parse_submit"),
        "protocol.encode_decision_us": spans.p50_us("protocol.encode_decision"),
        "protocol.decode_decision_us": spans.p50_us("protocol.decode_decision"),
        "protocol.submit_bytes": median(result.submit_bytes),
        "protocol.decision_bytes": median(result.decision_bytes),
    }


def shard_metrics(spans: Spans, result: PipelineResult) -> dict[str, float]:
    return {
        "shard.submit_us": spans.p50_us("shard.submit"),
        "shard.run_epoch_ms_p50": median(spans.durations_ms("shard.run_epoch")),
        "shard.self_ms_p50": median(spans.self_ms("shard.run_epoch")),
        "shard.cross_share":
            result.stats.cross_submitted / max(1, result.stats.submitted),
        "shard.cross_conflicts": result.stats.cross_conflicts,
        "shard.cross_serial_fallbacks": result.stats.cross_serial_fallbacks,
    }


def log_metrics(log_dir: Path, scratch: Path) -> dict[str, float]:
    """Replay a run's shard-0 log through ``append`` and ``replay_log``."""
    source = log_dir / "shard-0.jsonl"
    records = [
        json.loads(line) for line in source.read_text().splitlines() if line
    ]
    for record in records:
        record.pop("seq", None)
    target = scratch / "append-replay.jsonl"
    target.unlink(missing_ok=True)
    log = ShardEventLog(target)
    append_us: list[float] = []
    more = _budgeted(0.5)
    try:
        for record in records:
            start = time.perf_counter()
            log.append(record)
            append_us.append((time.perf_counter() - start) * 1e6)
            if not more():
                break
    finally:
        log.close()
        target.unlink(missing_ok=True)
    start = time.perf_counter()
    replay_log(records)
    return {
        "shard.log_append_us": median(append_us),
        "shard.replay_ms": (time.perf_counter() - start) * 1e3,
    }


def gateway_stats(
    inputs: Inputs, requests: list[SubmitRequest]
) -> dict[str, float]:
    """A standalone ``AdmissionGateway`` fed one batch per epoch.

    The batch is the number of wire connections, so a one-connection
    workload can have no intra-epoch overlap by construction.
    """
    width = inputs.workload.connections
    cap = replay_cap(inputs)
    live: deque[str] = deque()
    more = _budgeted(1.0)
    with AdmissionGateway(SparcleScheduler(inputs.network)) as gateway:
        for start in range(0, len(requests), width):
            batch = requests[start : start + width]
            tickets = [gateway.submit(request) for request in batch]
            gateway.drain()
            for request, ticket in zip(batch, tickets):
                decision = gateway.decision_for(ticket)
                if decision is not None and decision.accepted:
                    live.append(request.app_id)
            while len(live) > cap:
                gateway.scheduler.withdraw(live.popleft())
            if not more():
                break
        return {"gateway.overlap_commits": gateway.stats.overlap_commits}


def scheduler_metrics(serial: SerialResult) -> dict[str, float]:
    decided = len(serial.accepted)
    total = [e + c for e, c in zip(serial.evaluate_ms, serial.commit_ms)]
    accepts = [t for t, ok in zip(total, serial.accepted) if ok]
    rejects = [t for t, ok in zip(total, serial.accepted) if not ok]
    paths = [len(r) for r, ok in zip(serial.path_rates, serial.accepted) if ok]
    return {
        "scheduler.evaluate_ms_p50": median(serial.evaluate_ms),
        "scheduler.evaluate_self_ms_p50": median(
            [e - a for e, a in zip(serial.evaluate_ms, serial.assign_ms)]
        ),
        "scheduler.commit_ms_p50": median(serial.commit_ms),
        "scheduler.withdraw_ms_p50": median(serial.withdraw_ms),
        "scheduler.accept_ms_p50": median(accepts),
        "scheduler.reject_ms_p50": median(rejects),
        "scheduler.assign_calls_per_decision":
            sum(serial.assign_calls) / max(1, decided),
        "scheduler.paths_per_accept": sum(paths) / max(1, len(paths)),
        "scheduler.serial_decisions_per_s": decided / serial.wall_s,
    }


def availability_metrics(
    network: Network, serial: SerialResult
) -> dict[str, float]:
    """Replay Eq. (7) on the placements the serial scheduler admitted."""
    eval_ms: list[float] = []
    fallible: list[float] = []
    more = _budgeted(1.0)
    for request, placements, rates in serial.gr_accepts:
        profiles = [PathProfile.of(p, r) for p, r in zip(placements, rates)]
        used = frozenset().union(*(p.elements for p in profiles))
        fallible.append(
            sum(1 for e in used if network.failure_probability(e) > 0.0)
        )
        start = time.perf_counter()
        min_rate_availability(network, profiles, request.min_rate)
        eval_ms.append((time.perf_counter() - start) * 1e3)
        if not more():
            break
    return {
        "availability.eval_ms_p50": median(eval_ms),
        "availability.fallible_elements_p95": percentile(fallible, 95),
    }


def assignment_metrics(
    spans: Spans, before: dict[str, Any], after: dict[str, Any]
) -> dict[str, float]:
    """Counter deltas over the traced pipeline plus the assigner spans."""

    def delta(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    assign = spans.durations_ms("assignment.sparcle_assign")
    calls = max(1, len(assign))
    roots = sum(spans.durations_ms("request"))
    hits, misses = (delta("assignment.tree_cache_hit"),
                    delta("assignment.tree_cache_miss"))
    kept, dropped = (delta("assignment.trees_retained"),
                     delta("assignment.trees_invalidated"))
    return {
        "assignment.calls": len(assign),
        "assignment.ms_p50": median(assign),
        "assignment.time_share": sum(assign) / roots if roots else 0.0,
        "assignment.width_probes_per_call":
            delta("assignment.width_probes") / calls,
        "assignment.tree_cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "assignment.trees_retained_ratio":
            kept / (kept + dropped) if kept + dropped else 0.0,
        "assignment.commits_per_call": delta("assignment.commits") / calls,
        "routing.widest_path_per_assign": delta("routing.widest_path") / calls,
        "routing.widest_path_tree_per_assign":
            delta("routing.widest_path_tree") / calls,
    }


def routing_metrics(
    inputs: Inputs,
    serial: SerialResult,
    assign: dict[str, float],
) -> dict[str, float]:
    """Time the public kernels on the network at end-of-run residuals."""
    network = inputs.network
    view = CapacityView.from_snapshot(
        network, serial.scheduler.residual_snapshot()
    )
    names = list(network.ncp_names)
    tree_us: list[float] = []
    path_us: list[float] = []
    more = _budgeted(0.5)
    index = 0
    while more():
        src = names[index % len(names)]
        dst = names[(index * 7 + 3) % len(names)]
        index += 1
        start = time.perf_counter()
        widest_path_tree(network, view, src, 1.0)
        mid = time.perf_counter()
        if src != dst:
            widest_path(network, view, src, dst, 1.0)
            path_us.append((time.perf_counter() - mid) * 1e6)
        tree_us.append((mid - start) * 1e6)
    tree, path = median(tree_us), median(path_us)
    kernel_ms = (
        tree * assign["routing.widest_path_tree_per_assign"]
        + path * assign["routing.widest_path_per_assign"]
    ) / 1e3
    fresh = network_from_dict(network_to_dict(network))
    misses = counters.get("arrays.compile_miss")
    start = time.perf_counter()
    compile_network(fresh)
    compile_ms = (time.perf_counter() - start) * 1e3
    return {
        "routing.tree_us": tree,
        "routing.path_us": path,
        "routing.kernel_share_est":
            kernel_ms / assign["assignment.ms_p50"]
            if assign["assignment.ms_p50"] else 0.0,
        "arrays.compile_miss": counters.get("arrays.compile_miss") - misses,
        "arrays.compile_ms": compile_ms,
    }


def allocation_metrics(serial: SerialResult) -> dict[str, float]:
    """``allocate_be()`` on the serial replay's final state.

    No end-to-end metric moves with it (the wire path never calls it); it
    is the baseline for the Problem-(4) solver item.
    """
    be_apps = len(serial.scheduler.state().be_apps)
    elapsed = 0.0
    if be_apps:
        start = time.perf_counter()
        serial.scheduler.allocate_be()
        elapsed = (time.perf_counter() - start) * 1e3
    return {"allocation.allocate_be_ms": elapsed, "allocation.be_apps": be_apps}
