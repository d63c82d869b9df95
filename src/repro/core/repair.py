"""Online failure repair: the Fig.-3 control loop extended with outages.

The paper's availability story (Sec. IV-C, Eq. (7)) is *preventive*: the
scheduler places redundant task assignment paths up front and predicts how
often the guarantee will hold.  This module adds the *reactive* half — an
online repair loop that responds to element up/down events at run time:

1. **Suspend** — on an element-down event every admitted path crossing the
   element is suspended: its placement maps are preserved untouched (the
   no-migration rule) but its reservations are released back to the
   residual view.
2. **Degrade gracefully** — Best-Effort rates are re-solved immediately
   over the surviving paths (Problem (4)), so applications keep streaming
   at reduced rate while repair proceeds.
3. **Repair** — for every application whose guarantee no longer holds
   (GR: Eq.-(7) min-rate availability or aggregate rate; BE: requested
   any-path availability), Algorithm 2 is re-run against the updated
   residual view to reserve *replacement* paths that route around the
   outage.  Attempts follow a bounded retry/backoff budget
   (:class:`RetryPolicy`); an application that cannot be repaired is
   demoted to *degraded* status with an event record.
4. **Restore** — an element-up event reactivates suspended paths that
   still fit (GR rates capped by the admission-time baseline, so repair
   never inflates an app beyond what it was admitted with), resets the
   retry budget, and opportunistically re-repairs remaining degraded apps.

Invariants maintained (and asserted by the property tests):

* **No migration** — a surviving path's CT→NCP and TT→route maps never
  change; only rates and *new* replacement paths do.
* **Capacity conservation** — the residual view always equals fresh
  capacities minus the reservations of exactly the *active* paths;
  repeated fail/repair cycles neither leak nor double-free capacity.
* **Rate bracketing** — after handling any event, each GR app's active
  aggregate rate is at least its surviving-paths-only rate and at most its
  admission-time baseline rate.

Every action is recorded in :attr:`RepairController.events` (exposed by
the scheduler as ``repair_log``) and counted in :mod:`repro.perf`
(``repair.*`` counters, gauges, and timers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.scheduler import SparcleScheduler
from repro.exceptions import SparcleError
from repro.perf import counters, get_metrics, timer, tracing


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for repair attempts.

    After ``n`` consecutive failed attempts on one application the next
    attempt is deferred by ``backoff_base * backoff_factor**(n - 1)``
    simulated seconds; after ``max_attempts`` failures the controller
    gives up on the app until the topology improves (an element-up event
    resets the budget).
    """

    max_attempts: int = 3
    backoff_base: float = 1.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SparcleError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise SparcleError(
                f"backoff_base must be non-negative, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise SparcleError(
                f"backoff_factor must be at least 1, got {self.backoff_factor}"
            )

    def delay(self, failed_attempts: int) -> float:
        """Backoff before the next attempt after ``failed_attempts`` >= 1."""
        if failed_attempts < 1:
            raise SparcleError("delay is defined after at least one failure")
        return self.backoff_base * self.backoff_factor ** (failed_attempts - 1)


@dataclass(frozen=True)
class RepairEvent:
    """One entry of the repair event log."""

    time: float
    kind: str
    element: str = ""
    app_id: str = ""
    detail: str = ""


@dataclass(frozen=True)
class RepairOutcome:
    """What handling one element event (or retry tick) changed.

    The three rate dicts cover every admitted GR app and let callers check
    the bracketing invariant directly: ``surviving <= after`` always, and
    ``after`` never exceeds the app's admission-time baseline.
    """

    time: float
    kind: str  # "element_down" | "element_up" | "tick"
    element: str = ""
    suspended: dict[str, list[int]] = field(default_factory=dict)
    restored: dict[str, list[int]] = field(default_factory=dict)
    replaced: dict[str, int] = field(default_factory=dict)
    degraded: tuple[str, ...] = ()
    recovered: tuple[str, ...] = ()
    gr_rates_before: dict[str, float] = field(default_factory=dict)
    gr_rates_surviving: dict[str, float] = field(default_factory=dict)
    gr_rates_after: dict[str, float] = field(default_factory=dict)


def _reserved_capacity(scheduler: SparcleScheduler, app_id: str, indices: list[int]) -> float:
    """Total capacity units a set of (GR) paths had reserved."""
    try:
        records = scheduler.paths(app_id, "GR")
    except SparcleError:
        return 0.0  # BE paths reserve nothing
    total = 0.0
    for index in indices:
        record = records[index]
        for bucket in record.placement.loads().values():
            for load in bucket.values():
                total += record.rate * load
    return total


class RepairController:
    """Drives suspend / degrade / repair / restore against one scheduler.

    Attach once per scheduler; element events arrive via
    :meth:`element_down` / :meth:`element_up` (e.g. from a
    :class:`~repro.simulator.failures.FailureInjector` callback), and
    :meth:`tick` runs any retries whose backoff has expired.
    """

    def __init__(
        self,
        scheduler: SparcleScheduler,
        *,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.policy = policy or RetryPolicy()
        self.events: list[RepairEvent] = []
        self.last_be_allocation = None
        # Per-app consecutive failed repair attempts and next-retry times.
        self._failed_attempts: dict[str, int] = {}
        self._next_retry: dict[str, float] = {}
        # app_id -> time it became degraded (for time-to-repair).
        self._degraded_since: dict[str, float] = {}
        scheduler._repair_controller = self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def degraded_apps(self) -> tuple[str, ...]:
        """Applications whose guarantee currently fails, sorted."""
        return tuple(sorted(self._degraded_since))

    def next_retry_time(self) -> float | None:
        """Earliest pending retry, or ``None`` when nothing is scheduled."""
        pending = [
            when
            for app_id, when in self._next_retry.items()
            if app_id in self._degraded_since
            and self._failed_attempts.get(app_id, 0) < self.policy.max_attempts
        ]
        return min(pending) if pending else None

    def forget(self, app_id: str) -> None:
        """Drop per-app repair bookkeeping (after a scheduler withdrawal).

        A withdrawn app must not linger in the degraded set or the retry
        schedule — :meth:`tick` would otherwise try to repair an app the
        scheduler no longer knows.  Safe to call for unknown ids.
        """
        self._failed_attempts.pop(app_id, None)
        self._next_retry.pop(app_id, None)
        self._degraded_since.pop(app_id, None)

    def _log(self, time: float, kind: str, **fields: str) -> None:
        self.events.append(RepairEvent(time=time, kind=kind, **fields))
        # Mirror every repair action into the structured trace (with the
        # repair-loop time as the record timestamp) and the labeled
        # per-kind event counter, so a JSONL export reconstructs the full
        # suspend / re-solve / reserve / restore sequence.
        tr = tracing.get_tracer()
        if tr.enabled:
            tr.event(f"repair.{kind}", ts=time, **fields)
        get_metrics().incr("repair.events", kind=kind)

    # ------------------------------------------------------------------
    # Event entry points
    # ------------------------------------------------------------------
    def element_down(self, element: str, now: float = 0.0) -> RepairOutcome:
        """Handle an element failure: suspend, degrade gracefully, repair."""
        with timer("repair.element_down"):
            before = self._gr_rates()
            suspended = self.scheduler.mark_element_down(element)
            counters.incr("repair.element_down_events")
            self._log(now, "element_down", element=element)
            released = 0.0
            for app_id, indices in suspended.items():
                counters.incr("repair.paths_suspended", len(indices))
                released += _reserved_capacity(self.scheduler, app_id, indices)
                self._log(
                    now,
                    "paths_suspended",
                    element=element,
                    app_id=app_id,
                    detail=f"indices={indices}",
                )
            if released:
                counters.accumulate("repair.capacity_released", released)
            surviving = self._gr_rates()
            self._reallocate_be(now)
            self._reassess(now)
            replaced = self._attempt_repairs(now)
            return RepairOutcome(
                time=now,
                kind="element_down",
                element=element,
                suspended=suspended,
                replaced=replaced,
                degraded=self.degraded_apps,
                recovered=(),
                gr_rates_before=before,
                gr_rates_surviving=surviving,
                gr_rates_after=self._gr_rates(),
            )

    def element_up(self, element: str, now: float = 0.0) -> RepairOutcome:
        """Handle an element recovery: restore paths, re-repair the rest."""
        with timer("repair.element_up"):
            before = self._gr_rates()
            restored = self.scheduler.mark_element_up(element)
            counters.incr("repair.element_up_events")
            self._log(now, "element_up", element=element)
            for app_id, indices in restored.items():
                counters.incr("repair.paths_restored", len(indices))
                counters.accumulate(
                    "repair.capacity_restored",
                    _reserved_capacity(self.scheduler, app_id, indices),
                )
                self._log(
                    now,
                    "paths_restored",
                    element=element,
                    app_id=app_id,
                    detail=f"indices={indices}",
                )
            # Topology improved: every degraded app gets a fresh budget.
            for app_id in list(self._degraded_since):
                self._failed_attempts[app_id] = 0
                self._next_retry.pop(app_id, None)
            self._reallocate_be(now)
            recovered = self._reassess(now)
            replaced = self._attempt_repairs(now)
            return RepairOutcome(
                time=now,
                kind="element_up",
                element=element,
                restored=restored,
                replaced=replaced,
                degraded=self.degraded_apps,
                recovered=tuple(recovered),
                gr_rates_before=before,
                gr_rates_surviving=before,
                gr_rates_after=self._gr_rates(),
            )

    def tick(self, now: float) -> RepairOutcome:
        """Run any repair retries whose backoff has expired by ``now``."""
        before = self._gr_rates()
        recovered = self._reassess(now)
        replaced = self._attempt_repairs(now)
        return RepairOutcome(
            time=now,
            kind="tick",
            replaced=replaced,
            degraded=self.degraded_apps,
            recovered=tuple(recovered),
            gr_rates_before=before,
            gr_rates_surviving=before,
            gr_rates_after=self._gr_rates(),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _gr_rates(self) -> dict[str, float]:
        state = self.scheduler.state()
        return {
            app_id: sum(
                r.rate
                for r in self.scheduler.paths(app_id, "GR")
                if r.active
            )
            for app_id in state.gr_apps
        }

    def _reallocate_be(self, now: float) -> None:
        """Graceful degradation: re-solve BE rates over surviving paths."""
        if not self.scheduler.state().be_apps:
            return
        self.last_be_allocation = self.scheduler.allocate_be()
        counters.incr("repair.be_reallocations")
        self._log(now, "be_reallocated")

    def _health_ok(self, app_id: str) -> tuple[bool, str]:
        state = self.scheduler.state()
        if app_id in state.gr_apps:
            health = self.scheduler.health(app_id, "GR")
            if health.ok:
                return True, ""
            if not health.rate_met:
                return False, (
                    f"active rate {health.active_rate:.4f} < guaranteed "
                    f"{self.scheduler._find_gr(app_id).request.min_rate}"
                )
            return False, f"availability {health.availability:.4f} below request"
        health_be = self.scheduler.health(app_id, "BE")
        if health_be.ok:
            return True, ""
        if health_be.active_paths == 0:
            return False, "no active paths"
        return False, f"availability {health_be.availability:.4f} below request"

    def _reassess(self, now: float) -> list[str]:
        """Update the degraded set; returns apps that recovered passively."""
        state = self.scheduler.state()
        recovered: list[str] = []
        for app_id in list(state.gr_apps) + list(state.be_apps):
            ok, reason = self._health_ok(app_id)
            if ok and app_id in self._degraded_since:
                self._record_recovery(app_id, now, via="restoration")
                recovered.append(app_id)
            elif not ok and app_id not in self._degraded_since:
                self._degraded_since[app_id] = now
                kind = "gr_degraded" if app_id in state.gr_apps else "be_degraded"
                counters.incr("repair.apps_degraded")
                self._log(now, kind, app_id=app_id, detail=reason)
        return recovered

    def _record_recovery(self, app_id: str, now: float, *, via: str) -> None:
        since = self._degraded_since.pop(app_id)
        self._failed_attempts.pop(app_id, None)
        self._next_retry.pop(app_id, None)
        counters.incr("repair.apps_recovered")
        counters.observe("repair.time_to_repair", max(0.0, now - since))
        get_metrics().observe(
            "repair.time_to_repair", max(0.0, now - since), app=app_id
        )
        self._log(now, "app_recovered", app_id=app_id, detail=f"via {via}")

    def _attempt_repairs(self, now: float) -> dict[str, int]:
        """Try to repair every degraded app whose retry budget allows it."""
        replaced: dict[str, int] = {}
        for app_id in sorted(self._degraded_since):
            failures = self._failed_attempts.get(app_id, 0)
            if failures >= self.policy.max_attempts:
                continue  # gave up until the topology improves
            if now < self._next_retry.get(app_id, -math.inf):
                continue  # backing off
            added = self._repair_one(app_id, now)
            if added:
                replaced[app_id] = added
            ok, _ = self._health_ok(app_id)
            counters.incr("repair.attempts")
            if ok:
                counters.incr("repair.successes")
                self._record_recovery(app_id, now, via="replacement")
            else:
                failures += 1
                self._failed_attempts[app_id] = failures
                if failures >= self.policy.max_attempts:
                    counters.incr("repair.gave_up")
                    self._log(
                        now,
                        "repair_gave_up",
                        app_id=app_id,
                        detail=f"after {failures} attempts",
                    )
                else:
                    retry_at = now + self.policy.delay(failures)
                    self._next_retry[app_id] = retry_at
                    self._log(
                        now,
                        "repair_deferred",
                        app_id=app_id,
                        detail=f"retry at t={retry_at:.3f}",
                    )
        return replaced

    def _repair_one(self, app_id: str, now: float) -> int:
        """Add replacement paths for one app until healthy or stuck."""
        state = self.scheduler.state()
        is_gr = app_id in state.gr_apps
        added = 0
        with timer("repair.attempt"):
            while True:
                ok, _ = self._health_ok(app_id)
                if ok:
                    break
                if is_gr:
                    result = self.scheduler.add_path(app_id, kind="GR")
                    if result is None:
                        break
                    placement, rate = result
                    detail = f"rate={rate:.4f}"
                else:
                    placement = self.scheduler.add_path(app_id, kind="BE")
                    if placement is None:
                        break
                    detail = ""
                added += 1
                counters.incr("repair.paths_replaced")
                self._log(now, "path_replaced", app_id=app_id, detail=detail)
        if added and not is_gr:
            self._reallocate_be(now)
        return added
