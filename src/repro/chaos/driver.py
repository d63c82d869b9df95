"""Chaos soak driver: execute a fuzzed event trace, check every invariant.

:func:`generate_events` pre-bakes a deterministic trace — admission
submits (with fully materialized fuzzed requests), gateway epochs,
element down/up storms, backpressure floods, repair-clock ticks and
mid-churn :class:`~repro.core.network.ResidualSnapshot` freeze/restore
cycles — so that executing any *prefix* of the trace is bit-identical to
the same prefix inside a longer run.  That property is what makes
:meth:`ChaosDriver.shrink` sound: a failing trace minimizes to the
shortest failing prefix by bisection, with every probe rebuilding the
world from scratch.

:meth:`ChaosDriver.run` executes a trace against a fresh
scheduler/gateway/controller triple and calls
:func:`repro.chaos.invariants.check_invariants` after **every** event;
the first violation stops the run and is reported in the
:class:`SoakReport` (everything in the report is JSON-serializable, so
the CLI can persist event logs as artifacts and tests can diff two runs
for bit-identical reproduction).

A ``sabotage`` hook deliberately corrupts live state after a chosen
event — the mutation smoke test proving the harness *detects* broken
invariants instead of vacuously passing.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.chaos.fuzzer import FuzzProfile, FuzzedWorld, fuzz_request, fuzz_world
from repro.chaos.invariants import (
    ChaosContext,
    InvariantViolation,
    check_invariants,
    placement_key,
    registered_invariants,
)
from repro.core.network import Network
from repro.core.placement import CapacityView
from repro.core.repair import RepairController, RetryPolicy
from repro.core.scheduler import BERequest, Decision, GRRequest, SparcleScheduler
from repro.core.taskgraph import BANDWIDTH
from repro.exceptions import BackpressureError, ChaosError
from repro.service.gateway import AdmissionGateway
from repro.utils.rng import ensure_rng, spawn_rngs

#: Weighted event mix of the generated traces.
EVENT_WEIGHTS: dict[str, float] = {
    "submit": 0.34,
    "epoch": 0.22,
    "element_down": 0.10,
    "element_up": 0.08,
    "storm": 0.05,
    "flood": 0.06,
    "freeze_restore": 0.07,
    "tick": 0.08,
}

#: Queue bound used by soak gateways — small enough that floods shed.
SOAK_QUEUE_DEPTH = 24

#: Live-application ceiling: once more apps than this are admitted, the
#: driver withdraws the oldest ones.  Keeps per-event repair / BE
#: re-allocation cost bounded over long traces (and exercises the
#: withdrawal path under churn, which no other suite does).
MAX_LIVE_APPS = 12


@dataclass(frozen=True)
class ChaosEvent:
    """One pre-baked trace entry.  ``requests`` is empty unless relevant."""

    index: int
    kind: str
    elements: tuple[str, ...] = ()
    requests: tuple[GRRequest | BERequest, ...] = ()

    def describe(self) -> dict[str, Any]:
        """JSON-able summary (request objects reduced to ids/kinds)."""
        entry: dict[str, Any] = {"index": self.index, "kind": self.kind}
        if self.elements:
            entry["elements"] = list(self.elements)
        if self.requests:
            entry["requests"] = [
                {
                    "app_id": request.app_id,
                    "kind": "GR" if isinstance(request, GRRequest) else "BE",
                }
                for request in self.requests
            ]
        return entry


@dataclass
class SoakReport:
    """Everything one soak run observed, JSON-serializable."""

    seed: int | None
    events_planned: int
    events_run: int
    ok: bool
    violations: list[InvariantViolation] = field(default_factory=list)
    event_log: list[dict[str, Any]] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)
    world: dict[str, Any] = field(default_factory=dict)
    shrunk_events: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "events_planned": self.events_planned,
            "events_run": self.events_run,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "event_log": self.event_log,
            "stats": self.stats,
            "world": self.world,
            "shrunk_events": self.shrunk_events,
        }


def generate_events(
    rng: int | np.random.Generator | None,
    n_events: int,
    network: Network,
    profile: FuzzProfile | None = None,
    *,
    queue_depth: int = SOAK_QUEUE_DEPTH,
) -> list[ChaosEvent]:
    """Pre-bake a deterministic trace of ``n_events`` chaos events.

    Element down/up choices are made against a generation-time mirror of
    the down set (execution follows the same trace, so the mirror is
    exact).  The trace always ends with recovery of every downed element
    followed by a drain, so the completeness invariant gets a fully
    quiesced state to check.
    """
    generator = ensure_rng(rng)
    profile = profile or FuzzProfile()
    if n_events < 1:
        raise ChaosError(f"n_events must be >= 1, got {n_events}")
    kinds = tuple(EVENT_WEIGHTS)
    weights = np.array([EVENT_WEIGHTS[k] for k in kinds])
    weights = weights / weights.sum()
    elements = sorted(network.element_names())
    events: list[ChaosEvent] = []
    down: list[str] = []
    serial = 0

    def next_requests(count: int) -> tuple[GRRequest | BERequest, ...]:
        nonlocal serial
        out = []
        for _ in range(count):
            out.append(
                fuzz_request(generator, network, f"app{serial}", profile)
            )
            serial += 1
        return tuple(out)

    index = 0
    for _ in range(n_events):
        kind = str(generator.choice(np.array(kinds, dtype=object), p=weights))
        up_pool = [e for e in elements if e not in down]
        if kind == "element_down" and not up_pool:
            kind = "element_up"
        if kind == "element_up" and not down:
            kind = "tick"
        if kind == "storm" and len(up_pool) < 2:
            kind = "tick"
        if kind == "submit":
            event = ChaosEvent(index, "submit", requests=next_requests(1))
        elif kind == "flood":
            burst = queue_depth + int(generator.integers(4, 12))
            event = ChaosEvent(index, "flood", requests=next_requests(burst))
        elif kind == "element_down":
            victim = str(generator.choice(up_pool))
            down.append(victim)
            event = ChaosEvent(index, "element_down", elements=(victim,))
        elif kind == "element_up":
            chosen = down.pop(int(generator.integers(0, len(down))))
            event = ChaosEvent(index, "element_up", elements=(chosen,))
        elif kind == "storm":
            count = min(int(generator.integers(2, 5)), len(up_pool))
            victims = [
                str(v)
                for v in generator.choice(
                    np.array(up_pool, dtype=object), size=count, replace=False
                )
            ]
            down.extend(victims)
            event = ChaosEvent(index, "storm", elements=tuple(victims))
        else:  # epoch / freeze_restore / tick
            event = ChaosEvent(index, kind)
        events.append(event)
        index += 1
    # Deterministic cool-down: recover everything, then drain the queue.
    for element in list(down):
        events.append(ChaosEvent(index, "element_up", elements=(element,)))
        index += 1
    events.append(ChaosEvent(index, "drain"))
    return events


class ChaosDriver:
    """Executes pre-baked traces against fresh worlds and checks invariants.

    ``sabotage`` (if given) is called with the live scheduler right after
    the event at index ``sabotage_after`` executes — state corruption the
    invariant registry is expected to catch.
    """

    def __init__(
        self,
        world: FuzzedWorld,
        *,
        invariants: Sequence[str] | None = None,
        queue_depth: int = SOAK_QUEUE_DEPTH,
        max_live_apps: int = MAX_LIVE_APPS,
        sabotage: Callable[[SparcleScheduler], None] | None = None,
        sabotage_after: int = 0,
    ) -> None:
        self.world = world
        self.invariants = (
            tuple(invariants) if invariants is not None else registered_invariants()
        )
        self.queue_depth = queue_depth
        self.max_live_apps = max_live_apps
        self.sabotage = sabotage
        self.sabotage_after = sabotage_after

    def _fresh_world(
        self,
    ) -> tuple[SparcleScheduler, AdmissionGateway, RepairController]:
        scheduler = SparcleScheduler(self.world.spec.network)
        controller = RepairController(
            scheduler, policy=RetryPolicy(max_attempts=2, backoff_base=1.0)
        )
        gateway = AdmissionGateway(
            scheduler, max_queue_depth=self.queue_depth
        )
        return scheduler, gateway, controller

    def run(self, events: Sequence[ChaosEvent]) -> SoakReport:
        """Execute a trace, stopping at the first invariant violation."""
        scheduler, gateway, controller = self._fresh_world()
        tickets: dict[str, int] = {}
        shed: set[str] = set()
        # The gateway keeps no history; the harness keeps its own.
        decisions: list[Decision] = []
        now = 0.0
        report = SoakReport(
            seed=None,
            events_planned=len(events),
            events_run=0,
            ok=True,
            world={
                "name": self.world.spec.name,
                "family": self.world.family,
                "shape": self.world.shape,
                "n_ncps": len(self.world.spec.network.ncp_names),
                "n_links": len(self.world.spec.network.links),
            },
        )

        def submit_all(requests: Sequence[GRRequest | BERequest]) -> dict[str, int]:
            outcome = {"submitted": 0, "shed": 0}
            for request in requests:
                try:
                    tickets[request.app_id] = gateway.submit(request)
                    outcome["submitted"] += 1
                except BackpressureError:
                    shed.add(request.app_id)
                    outcome["shed"] += 1
            return outcome

        def enforce_live_cap() -> list[str]:
            """Withdraw oldest-admitted apps above the live ceiling."""
            state = scheduler.state()
            live = set(state.gr_apps) | set(state.be_apps)
            withdrawn: list[str] = []
            if len(live) <= self.max_live_apps:
                return withdrawn
            for decision in decisions:
                if len(live) <= self.max_live_apps:
                    break
                if decision.accepted and decision.app_id in live:
                    scheduler.withdraw(decision.app_id)
                    controller.forget(decision.app_id)
                    live.discard(decision.app_id)
                    withdrawn.append(decision.app_id)
            return withdrawn

        for event in events:
            pre_placements = {
                app_id: tuple(
                    placement_key(record.placement)
                    for record in scheduler.paths(app_id, "GR")
                )
                for app_id in scheduler.state().gr_apps
            }
            now += 1.0
            entry = event.describe()
            if event.kind == "submit" or event.kind == "flood":
                entry["outcome"] = submit_all(event.requests)
                if event.kind == "flood":
                    epoch = gateway.run_epoch()
                    decisions.extend(d for _, d in epoch.decided)
                    entry["outcome"]["accepted"] = epoch.accepted
            elif event.kind == "epoch":
                epoch = gateway.run_epoch()
                decisions.extend(d for _, d in epoch.decided)
                entry["outcome"] = {
                    "batch": epoch.batch,
                    "accepted": epoch.accepted,
                    "rejected": epoch.rejected,
                }
            elif event.kind in ("element_down", "storm"):
                suspended = 0
                for element in event.elements:
                    outcome = controller.element_down(element, now)
                    suspended += sum(
                        len(idx) for idx in outcome.suspended.values()
                    )
                entry["outcome"] = {
                    "suspended_paths": suspended,
                    "degraded": list(controller.degraded_apps),
                }
            elif event.kind == "element_up":
                for element in event.elements:
                    outcome = controller.element_up(element, now)
                entry["outcome"] = {
                    "degraded": list(controller.degraded_apps)
                }
            elif event.kind == "tick":
                controller.tick(now)
                entry["outcome"] = {
                    "degraded": list(controller.degraded_apps)
                }
            elif event.kind == "freeze_restore":
                entry["outcome"] = {
                    "round_trip_exact": self._freeze_restore(scheduler)
                }
            elif event.kind == "drain":
                reports = gateway.drain()
                for epoch in reports:
                    decisions.extend(d for _, d in epoch.decided)
                entry["outcome"] = {
                    "epochs": len(reports),
                    "queue_depth": gateway.queue_depth,
                }
            else:  # pragma: no cover - generation and execution agree
                raise ChaosError(f"unknown event kind {event.kind!r}")
            withdrawn = enforce_live_cap()
            if withdrawn:
                entry["withdrawn"] = withdrawn
            if self.sabotage is not None and event.index == self.sabotage_after:
                self.sabotage(scheduler)
                entry["sabotaged"] = True
            report.event_log.append(entry)
            report.events_run += 1
            context = ChaosContext(
                scheduler=scheduler,
                gateway=gateway,
                controller=controller,
                event_index=event.index,
                event_kind=event.kind,
                pre_gr_placements=pre_placements,
                tickets=tickets,
                shed=frozenset(shed),
                decisions=decisions,
            )
            violations = check_invariants(context, self.invariants)
            if not entry["outcome"].get("round_trip_exact", True):
                violations.append(
                    InvariantViolation(
                        "freeze-restore", event.index,
                        "ResidualSnapshot round trip changed the residual",
                    )
                )
            if violations:
                report.ok = False
                report.violations = violations
                break
        stats = gateway.stats
        report.stats = {
            "submitted": stats.submitted,
            "shed": len(shed),
            "epochs": stats.epochs,
            "committed": stats.committed,
            "accepted": stats.accepted,
            "rejected": stats.rejected,
            "backpressure_rejections": stats.backpressure_rejections,
            "repair_events": len(controller.events),
            "down_elements": sorted(scheduler.down_elements),
            "degraded_apps": list(controller.degraded_apps),
        }
        gateway.close()
        return report

    @staticmethod
    def _freeze_restore(scheduler: SparcleScheduler) -> bool:
        """Freeze the live GR residual and thaw it; True when bit-exact."""
        view = scheduler._gr_residual
        before = view.snapshot()
        snapshot = view.freeze()
        thawed = CapacityView.from_snapshot(scheduler.network, snapshot)
        return thawed.snapshot() == before

    def shrink(self, events: Sequence[ChaosEvent]) -> SoakReport:
        """Minimize a failing trace to its shortest failing prefix.

        Bisects on the prefix length, re-running the world from scratch
        for each probe; raises :class:`ChaosError` if the full trace does
        not actually fail (nothing to shrink).
        """
        full = self.run(events)
        if full.ok:
            raise ChaosError("shrink called on a passing trace")
        low, high = 1, full.events_run  # events_run-length prefix fails
        best = full
        while low < high:
            mid = (low + high) // 2
            probe = self.run(events[:mid])
            if probe.ok:
                low = mid + 1
            else:
                best = probe
                high = mid
        best.shrunk_events = high
        return best


def builtin_sabotage(name: str) -> Callable[[SparcleScheduler], None]:
    """Named state corruptions for the mutation smoke test.

    ``"residual"`` silently halves one positive residual entry — the
    bookkeeping drift the ``residual-conservation`` invariant exists to
    catch.
    """
    if name != "residual":
        raise ChaosError(
            f"unknown sabotage {name!r}; available: ('residual',)"
        )

    def corrupt_residual(scheduler: SparcleScheduler) -> None:
        view = scheduler._gr_residual
        for element, bucket in sorted(view.snapshot().items()):
            for resource, value in sorted(bucket.items()):
                if value > 0.0:
                    view.override(element, resource, value * 0.5)
                    return
        # Nothing held yet (or all consumed): zero out a raw capacity.
        network = scheduler.network
        element = sorted(network.element_names())[0]
        for resource in sorted(set(network.resources()) | {BANDWIDTH}):
            if view.capacity(element, resource) > 0.0:
                view.override(element, resource, 0.0)
                return

    return corrupt_residual


def run_soak(
    seed: int,
    n_events: int,
    *,
    profile: FuzzProfile | None = None,
    quick: bool = False,
    invariants: Sequence[str] | None = None,
    sabotage: str | None = None,
    sabotage_after: int = 0,
    shrink: bool = False,
) -> SoakReport:
    """The full soak pipeline: fuzz a world, bake a trace, run it.

    One seed fixes everything — world, request stream and event order —
    so two calls with the same arguments produce identical reports
    (``SoakReport.to_dict`` compares equal).  With ``shrink=True`` a
    failing run is re-minimized to its shortest failing prefix before
    returning.
    """
    if profile is None:
        profile = FuzzProfile.quick() if quick else FuzzProfile()
    world_rng, trace_rng = spawn_rngs(ensure_rng(seed), 2)
    world = fuzz_world(world_rng, profile, name=f"chaos-seed{seed}")
    events = generate_events(trace_rng, n_events, world.spec.network, profile)
    driver = ChaosDriver(
        world,
        invariants=invariants,
        sabotage=builtin_sabotage(sabotage) if sabotage is not None else None,
        sabotage_after=sabotage_after,
    )
    report = driver.run(events)
    if not report.ok and shrink:
        report = driver.shrink(events)
    report.seed = seed
    return report
