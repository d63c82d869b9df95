"""Cross-cutting invariant registry checked after every chaos event.

Each invariant is a named predicate over a :class:`ChaosContext` — the
live scheduler / gateway / repair-controller triple plus the bookkeeping
the driver carries (pre-event path snapshots, issued tickets, shed
requests).  The registry decouples *what must always hold* from *how the
world is being shaken*: the driver fires storms, floods and
freeze/restore cycles and simply asks :func:`check_invariants` after
each one.

The shipped invariants are the correctness pillars of the paper's
online story:

* ``residual-conservation`` — the scheduler's incremental GR residual
  equals an independent from-scratch re-derivation (fresh capacities,
  down elements zeroed, active GR reservations re-consumed);
* ``residual-nonnegative`` — no residual entry ever goes below zero;
* ``no-migration`` — surviving paths never move: a path record's
  placement is immutable once admitted, repairs only *append* records;
* ``gr-guarantee`` — every admitted GR app either meets Eq. (7)
  (rate and availability) right now, or is demoted to degraded *with a
  logged repair event* — silent guarantee violations are the bug class;
* ``decision-log`` — the gateway's one-decision-per-request contract:
  decisions are unique per app, consistent with the stats counters, and
  complete once the queue is drained.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.core.placement import CapacityView
from repro.core.repair import RepairController
from repro.core.scheduler import SparcleScheduler
from repro.core.taskgraph import BANDWIDTH
from repro.service.gateway import AdmissionGateway

#: Residual comparisons tolerate accumulated float error up to this.
TOLERANCE = 1e-6

#: Repair-event kinds that justify an app sitting in the degraded set.
DEGRADE_EVENT_KINDS = frozenset({"gr_degraded", "be_degraded"})


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant broken after one event."""

    invariant: str
    event_index: int
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "event_index": self.event_index,
            "detail": self.detail,
        }


@dataclass
class ChaosContext:
    """Everything an invariant may inspect after an event ran."""

    scheduler: SparcleScheduler
    gateway: AdmissionGateway
    controller: RepairController
    event_index: int
    event_kind: str
    #: app_id -> placements (as (ct_hosts, tt_routes) pairs) of every GR
    #: path record *before* the event executed, in record order.
    pre_gr_placements: Mapping[str, tuple[Any, ...]] = field(default_factory=dict)
    #: app_id -> gateway ticket for every successfully submitted request.
    tickets: Mapping[str, int] = field(default_factory=dict)
    #: app_ids shed by backpressure (no ticket, no decision expected).
    shed: frozenset[str] = frozenset()
    #: The :class:`~repro.service.shard.ShardCoordinator` under soak, if
    #: the world is federated.  Shard invariants no-op when this is None,
    #: so the single-gateway driver can keep running the full registry.
    federation: Any = None


InvariantCheck = Callable[[ChaosContext], list[str]]

_REGISTRY: dict[str, InvariantCheck] = {}


def invariant(name: str) -> Callable[[InvariantCheck], InvariantCheck]:
    """Register a named invariant check (decorator)."""

    def register(check: InvariantCheck) -> InvariantCheck:
        if name in _REGISTRY:
            raise ValueError(f"invariant {name!r} is already registered")
        _REGISTRY[name] = check
        return check

    return register


def registered_invariants() -> tuple[str, ...]:
    """Names of every registered invariant, sorted."""
    return tuple(sorted(_REGISTRY))


def check_invariants(
    context: ChaosContext, names: Iterable[str] | None = None
) -> list[InvariantViolation]:
    """Run the registry (or a named subset) against one post-event state."""
    selected = registered_invariants() if names is None else tuple(names)
    violations: list[InvariantViolation] = []
    for name in selected:
        try:
            check = _REGISTRY[name]
        except KeyError:
            raise ValueError(
                f"unknown invariant {name!r}; registered: "
                f"{registered_invariants()}"
            ) from None
        for detail in check(context):
            violations.append(
                InvariantViolation(name, context.event_index, detail)
            )
    return violations


def placement_key(placement: Any) -> tuple[Any, ...]:
    """A hashable identity for a placement (hosts + routes)."""
    return (
        tuple(sorted(placement.ct_hosts.items())),
        tuple(sorted((tt, tuple(route)) for tt, route in placement.tt_routes.items())),
    )


def scratch_residual(scheduler: SparcleScheduler) -> dict[str, dict[str, float]]:
    """The GR residual re-derived from first principles.

    Fresh raw capacities, every down element zeroed, then each *active*
    GR path's load consumed at its reserved rate.  The scheduler's
    ``_gr_residual`` must equal it bit for bit: both are capacity minus
    the exact integer sum of the same holds.
    """
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


@invariant("residual-conservation")
def _residual_conservation(context: ChaosContext) -> list[str]:
    expected = scratch_residual(context.scheduler)
    actual = context.scheduler.state().residual
    problems: list[str] = []
    if set(actual) != set(expected):
        problems.append(
            "residual element sets differ: "
            f"only-live={sorted(set(actual) - set(expected))} "
            f"only-scratch={sorted(set(expected) - set(actual))}"
        )
        return problems
    for element, bucket in sorted(expected.items()):
        for resource, value in sorted(bucket.items()):
            got = actual[element][resource]
            if got != value:
                problems.append(
                    f"residual[{element}][{resource}] = {got!r}, "
                    f"scratch re-derivation says {value!r}"
                )
    return problems


@invariant("residual-nonnegative")
def _residual_nonnegative(context: ChaosContext) -> list[str]:
    problems: list[str] = []
    for element, bucket in sorted(context.scheduler.state().residual.items()):
        for resource, value in sorted(bucket.items()):
            if value < -TOLERANCE:
                problems.append(
                    f"residual[{element}][{resource}] is negative: {value!r}"
                )
    return problems


@invariant("no-migration")
def _no_migration(context: ChaosContext) -> list[str]:
    """Admitted placements never move; repairs may only append records."""
    problems: list[str] = []
    scheduler = context.scheduler
    live_apps = set(scheduler.state().gr_apps)
    for app_id, before in sorted(context.pre_gr_placements.items()):
        if app_id not in live_apps:
            continue  # withdrawn apps drop their records legitimately
        records = scheduler.paths(app_id, "GR")
        if len(records) < len(before):
            problems.append(
                f"{app_id}: path records shrank from {len(before)} to "
                f"{len(records)} (records must be append-only)"
            )
            continue
        for index, key in enumerate(before):
            now_key = placement_key(records[index].placement)
            if now_key != key:
                problems.append(
                    f"{app_id}: path {index} migrated (placement changed "
                    "in place instead of being suspended/replaced)"
                )
    return problems


@invariant("gr-guarantee")
def _gr_guarantee(context: ChaosContext) -> list[str]:
    """Eq. (7) holds, or the app is degraded with an audit trail."""
    problems: list[str] = []
    scheduler = context.scheduler
    controller = context.controller
    degraded = set(controller.degraded_apps)
    logged = {
        event.app_id
        for event in controller.events
        if event.kind in DEGRADE_EVENT_KINDS
    }
    for app_id in scheduler.state().gr_apps:
        health = scheduler.health(app_id, "GR")
        if health.ok:
            continue
        if app_id not in degraded:
            problems.append(
                f"{app_id}: guarantee fails (rate_met={health.rate_met}, "
                f"availability={health.availability:.4f}) but the app is "
                "not in the controller's degraded set"
            )
        elif app_id not in logged:
            problems.append(
                f"{app_id}: degraded without a logged degrade event"
            )
    return problems


@invariant("decision-log")
def _decision_log(context: ChaosContext) -> list[str]:
    """One decision per request, stats-consistent, complete when drained."""
    problems: list[str] = []
    gateway = context.gateway
    decisions = gateway.decisions
    seen: dict[str, int] = {}
    for decision in decisions:
        seen[decision.app_id] = seen.get(decision.app_id, 0) + 1
    duplicates = sorted(a for a, count in seen.items() if count > 1)
    if duplicates:
        problems.append(f"multiple decisions recorded for {duplicates}")
    for app_id in sorted(context.shed):
        if app_id in seen:
            problems.append(
                f"{app_id} was shed by backpressure but has a decision"
            )
    stats = gateway.stats
    if stats.committed != len(decisions):
        problems.append(
            f"stats.committed={stats.committed} but "
            f"{len(decisions)} decisions recorded"
        )
    if stats.accepted + stats.rejected != len(decisions):
        problems.append(
            f"accepted+rejected={stats.accepted + stats.rejected} "
            f"!= {len(decisions)} decisions"
        )
    if gateway.queue_depth == 0:
        undecided = sorted(
            app_id
            for app_id, ticket in context.tickets.items()
            if gateway.decision_for(ticket) is None
        )
        if undecided:
            problems.append(
                f"queue is empty but tickets are undecided: {undecided}"
            )
    return problems
