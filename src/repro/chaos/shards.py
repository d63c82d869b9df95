"""Shard-kill chaos: soak a federated control plane and check its books.

Extends the chaos harness to :class:`~repro.service.shard.ShardCoordinator`
worlds.  The trace mixes admissions (fuzzed pinned requests land intra- or
cross-shard naturally), coordinator epochs, withdrawals, and the failure
events the sharded design exists to survive — ``shard_kill`` (a region
crashes, its queue is lost, its event log survives) and ``shard_restart``
(warm start from the log).  Traces are pre-baked and prefix-exact like
:func:`repro.chaos.driver.generate_events`, so shrinking stays sound.

Three federation invariants join the global registry (they no-op for
non-federated contexts, so the single-gateway driver keeps running the
full registry unchanged):

* ``shard-residual-conservation`` — every live shard's residual equals,
  bit for bit, a from-scratch re-derivation over its consumption ledger
  (local GR paths plus external/adopted reservations);
* ``shard-ledger-conservation`` — the coordinator's boundary-link ledger
  equals, bit for bit, the re-consumed ledger parts of every live
  cross-shard app and never goes negative: a boundary link can never be
  double-booked;
* ``shard-log-consistency`` — replaying any live shard's event log
  reproduces its live residual bit-for-bit (the warm-start contract,
  checked continuously rather than only at restart).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.chaos.fuzzer import FuzzProfile, fuzz_network, fuzz_request
from repro.chaos.invariants import (
    TOLERANCE,
    ChaosContext,
    InvariantViolation,
    check_invariants,
    invariant,
)
from repro.core.network import Network
from repro.core.placement import CapacityView
from repro.core.repair import RepairController
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.exceptions import (
    AdmissionError,
    BackpressureError,
    ChaosError,
    ShardError,
)
from repro.service.shard import (
    FederationEpochReport,
    ShardCoordinator,
    ShardNode,
    hold_apps,
    replay_log,
)

#: Weighted event mix of federated soak traces.
SHARD_EVENT_WEIGHTS: dict[str, float] = {
    "submit": 0.42,
    "epoch": 0.26,
    "shard_kill": 0.08,
    "shard_restart": 0.08,
    "withdraw": 0.10,
    "drain": 0.06,
}

#: Invariants a federated soak checks after every event.
SHARD_INVARIANTS: tuple[str, ...] = (
    "shard-residual-conservation",
    "shard-ledger-conservation",
    "shard-log-consistency",
)


# ----------------------------------------------------------------------
# Federation invariants (registered globally; no-op without a federation)
# ----------------------------------------------------------------------
def _scratch_shard_residual(node: ShardNode) -> CapacityView:
    """A shard's residual re-derived from its consumption ledger."""
    view = CapacityView(node.network)
    for consumptions in node.consumption_ledger().values():
        for loads, rate in consumptions:
            view.consume(loads, rate)
    return view


@invariant("shard-residual-conservation")
def _shard_residual_conservation(context: ChaosContext) -> list[str]:
    federation = context.federation
    if federation is None:
        return []
    problems: list[str] = []
    for node in federation.nodes:
        if not node.alive:
            continue
        scratch = _scratch_shard_residual(node)
        actual = node.scheduler.state().residual
        # Snapshots are sparse (overridden entries only), so compare over
        # the union, defaulting absent entries to the raw capacity.
        keys = {
            (element, resource)
            for element, bucket in scratch.snapshot().items()
            for resource in bucket
        } | {
            (element, resource)
            for element, bucket in actual.items()
            for resource in bucket
        }
        for element, resource in sorted(keys):
            want = scratch.capacity(element, resource)
            got = actual.get(element, {}).get(
                resource, node.network.capacity(element, resource)
            )
            if got != want:
                problems.append(
                    f"shard{node.shard_id}: residual[{element}]"
                    f"[{resource}] = {got!r}, ledger re-derivation "
                    f"says {want!r}"
                )
    return problems


@invariant("shard-ledger-conservation")
def _shard_ledger_conservation(context: ChaosContext) -> list[str]:
    federation = context.federation
    if federation is None:
        return []
    problems: list[str] = []
    view = CapacityView(federation.network)
    for _app_id, per_owner in federation.cross_apps():
        for owner, consumptions in per_owner:
            if owner != -1:  # repro.service.shard.LEDGER
                continue
            for loads, rate in consumptions:
                view.consume(loads, rate)
    expected_entries = {
        (element, resource): value
        for element, resource, value in view.freeze().entries
    }
    actual_entries = {
        (element, resource): value
        for element, resource, value in federation.ledger_entries()
    }
    for key in sorted(set(expected_entries) | set(actual_entries)):
        want = expected_entries.get(key)
        got = actual_entries.get(key)
        if want is None or got is None:
            problems.append(
                f"ledger entry {key} present on only one side "
                f"(live={got!r}, scratch={want!r})"
            )
            continue
        if got != want:
            problems.append(
                f"ledger[{key[0]}][{key[1]}] = {got!r}, cross-app "
                f"re-derivation says {want!r}"
            )
    for (element, resource), value in sorted(actual_entries.items()):
        if value < -TOLERANCE:
            problems.append(
                f"ledger[{element}][{resource}] is negative: {value!r} "
                "(a boundary link was double-booked)"
            )
    return problems


@invariant("shard-log-consistency")
def _shard_log_consistency(context: ChaosContext) -> list[str]:
    federation = context.federation
    if federation is None:
        return []
    problems: list[str] = []
    for node in federation.nodes:
        if not node.alive or len(node.log) == 0:
            continue
        restored = SparcleScheduler(node.network)
        hold_apps(restored, replay_log(node.log.records()).values())
        if restored.residual_snapshot() != node.scheduler.residual_snapshot():
            problems.append(
                f"shard{node.shard_id}: a scheduler restored from the "
                "log disagrees with the live residual"
            )
    return problems


# ----------------------------------------------------------------------
# Trace generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardChaosEvent:
    """One pre-baked federated trace entry."""

    index: int
    kind: str
    shard: int | None = None
    requests: tuple[GRRequest | BERequest, ...] = ()

    def describe(self) -> dict[str, Any]:
        """JSON-able summary (request objects reduced to ids/kinds)."""
        entry: dict[str, Any] = {"index": self.index, "kind": self.kind}
        if self.shard is not None:
            entry["shard"] = self.shard
        if self.requests:
            entry["requests"] = [
                {
                    "app_id": request.app_id,
                    "kind": "GR" if isinstance(request, GRRequest) else "BE",
                }
                for request in self.requests
            ]
        return entry


def generate_shard_events(
    rng: int | np.random.Generator | None,
    n_events: int,
    network: Network,
    *,
    n_shards: int = 2,
    profile: FuzzProfile | None = None,
) -> list[ShardChaosEvent]:
    """Pre-bake a deterministic federated chaos trace.

    Kill/restart choices are made against a generation-time mirror of the
    dead-shard set (execution follows the same trace, so the mirror is
    exact); at least one shard always stays alive.  The trace ends with a
    deterministic cool-down — restart every dead shard, then drain — so
    the final invariant check sees a fully quiesced federation.
    """
    from repro.utils.rng import ensure_rng

    generator = ensure_rng(rng)
    profile = profile or FuzzProfile()
    if n_events < 1:
        raise ChaosError(f"n_events must be >= 1, got {n_events}")
    if n_shards < 1:
        raise ChaosError(f"n_shards must be >= 1, got {n_shards}")
    kinds = tuple(SHARD_EVENT_WEIGHTS)
    weights = np.array([SHARD_EVENT_WEIGHTS[k] for k in kinds])
    weights = weights / weights.sum()
    events: list[ShardChaosEvent] = []
    dead: list[int] = []
    serial = 0
    index = 0
    for _ in range(n_events):
        kind = str(generator.choice(np.array(kinds, dtype=object), p=weights))
        alive = [s for s in range(n_shards) if s not in dead]
        if kind == "shard_kill" and len(alive) < 2:
            kind = "epoch"
        if kind == "shard_restart" and not dead:
            kind = "epoch"
        if kind == "submit":
            request = fuzz_request(
                generator, network, f"fed{serial}", profile
            )
            serial += 1
            event = ShardChaosEvent(index, "submit", requests=(request,))
        elif kind == "shard_kill":
            victim = int(generator.choice(np.array(alive)))
            dead.append(victim)
            event = ShardChaosEvent(index, "shard_kill", shard=victim)
        elif kind == "shard_restart":
            chosen = dead.pop(int(generator.integers(0, len(dead))))
            event = ShardChaosEvent(index, "shard_restart", shard=chosen)
        else:  # epoch / withdraw / drain
            event = ShardChaosEvent(index, kind)
        events.append(event)
        index += 1
    # Deterministic cool-down: revive everything, then drain.
    for shard in sorted(dead):
        events.append(ShardChaosEvent(index, "shard_restart", shard=shard))
        index += 1
    events.append(ShardChaosEvent(index, "drain"))
    return events


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class ShardSoakReport:
    """Everything one federated soak run observed, JSON-serializable."""

    seed: int | None
    events_planned: int
    events_run: int
    ok: bool
    violations: list[InvariantViolation] = field(default_factory=list)
    event_log: list[dict[str, Any]] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)
    world: dict[str, Any] = field(default_factory=dict)

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
        }


def builtin_shard_sabotage(
    name: str,
) -> Callable[[ShardCoordinator], None]:
    """Named federation corruptions for the mutation smoke test.

    ``"residual"`` silently halves one positive residual entry on the
    first live shard — the drift ``shard-residual-conservation`` and
    ``shard-log-consistency`` exist to catch.
    """
    if name != "residual":
        raise ChaosError(
            f"unknown shard sabotage {name!r}; available: ('residual',)"
        )

    def corrupt(federation: ShardCoordinator) -> None:
        for node in federation.nodes:
            if not node.alive:
                continue
            view = node.scheduler._gr_residual
            for element, bucket in sorted(view.snapshot().items()):
                for resource, value in sorted(bucket.items()):
                    if value > 0.0:
                        view.override(element, resource, value * 0.5)
                        return
        # Nothing consumed anywhere yet: zero out one raw capacity on the
        # first live shard instead (still drifts live vs. re-derived).
        for node in federation.nodes:
            if not node.alive:
                continue
            view = node.scheduler._gr_residual
            for element in sorted(node.network.element_names()):
                for resource in sorted(node.network.resources()):
                    if view.capacity(element, resource) > 0.0:
                        view.override(element, resource, 0.0)
                        return

    return corrupt


class ShardChaosDriver:
    """Executes federated traces against fresh federations.

    ``sabotage`` (if given) is called with the live coordinator right
    after the event at index ``sabotage_after`` executes; the federation
    invariants are expected to catch the corruption.
    """

    def __init__(
        self,
        network: Network,
        *,
        n_shards: int = 2,
        invariants: Sequence[str] | None = None,
        sabotage: Callable[[ShardCoordinator], None] | None = None,
        sabotage_after: int = 0,
    ) -> None:
        self.network = network
        self.n_shards = n_shards
        self.invariants = (
            tuple(invariants) if invariants is not None else SHARD_INVARIANTS
        )
        self.sabotage = sabotage
        self.sabotage_after = sabotage_after

    def run(self, events: Sequence[ShardChaosEvent]) -> ShardSoakReport:
        """Execute a trace, stopping at the first invariant violation."""
        coordinator = ShardCoordinator(self.network, n_shards=self.n_shards)
        # The shard invariants only read ``federation``; the mandatory
        # triple fields point at shard 0 so the context stays well-formed.
        anchor = coordinator.nodes[0]
        controller = RepairController(anchor.scheduler)
        report = ShardSoakReport(
            seed=None,
            events_planned=len(events),
            events_run=0,
            ok=True,
            world={
                "name": self.network.name,
                "n_ncps": len(self.network.ncp_names),
                "n_links": len(self.network.links),
                "n_shards": coordinator.partition.n_shards,
                "boundary_links": len(coordinator.partition.boundary_links),
            },
        )
        shed = 0
        unroutable = 0
        withdrawn: set[str] = set()
        # Accepted app ids in commit order: the coordinator keeps no
        # decision history, so the harness keeps this one.
        accepted: list[str] = []

        def take(report: FederationEpochReport) -> None:
            for ticket, decision in report.decided:
                if decision.accepted:
                    accepted.append(decision.app_id)
                coordinator.retire(ticket)

        for event in events:
            entry = event.describe()
            if event.kind == "submit":
                outcome = {"submitted": 0, "shed": 0, "unroutable": 0}
                for request in event.requests:
                    try:
                        coordinator.submit(request)
                        outcome["submitted"] += 1
                    except BackpressureError:
                        shed += 1
                        outcome["shed"] += 1
                    except ShardError:
                        # Pinned to a killed shard: the request is lost,
                        # which is the documented crash semantics.
                        unroutable += 1
                        outcome["unroutable"] += 1
                entry["outcome"] = outcome
            elif event.kind == "epoch":
                epoch = coordinator.run_epoch()
                take(epoch)
                entry["outcome"] = {
                    "cross_batch": epoch.cross_batch,
                    "cross_conflicts": epoch.cross_conflicts,
                    "queue_depth": epoch.queue_depth,
                }
            elif event.kind == "shard_kill":
                assert event.shard is not None
                lost = coordinator.kill_shard(event.shard)
                entry["outcome"] = {"lost": lost}
            elif event.kind == "shard_restart":
                assert event.shard is not None
                coordinator.restart_shard(event.shard)
                node = coordinator.nodes[event.shard]
                entry["outcome"] = {"adopted": len(node.live_apps())}
            elif event.kind == "withdraw":
                victim = next(
                    (a for a in accepted if a not in withdrawn), None
                )
                if victim is not None:
                    try:
                        coordinator.withdraw(victim)
                        withdrawn.add(victim)
                        entry["outcome"] = {"withdrew": victim}
                    except AdmissionError:
                        # Lives only on a killed shard; skip this round.
                        entry["outcome"] = {"withdrew": None}
                else:
                    entry["outcome"] = {"withdrew": None}
            elif event.kind == "drain":
                reports = coordinator.drain()
                for epoch in reports:
                    take(epoch)
                entry["outcome"] = {
                    "epochs": len(reports),
                    "queue_depth": coordinator.queue_depth,
                }
            else:  # pragma: no cover - generation and execution agree
                raise ChaosError(f"unknown event kind {event.kind!r}")
            if self.sabotage is not None and event.index == self.sabotage_after:
                self.sabotage(coordinator)
                entry["sabotaged"] = True
            report.event_log.append(entry)
            report.events_run += 1
            context = ChaosContext(
                scheduler=anchor.scheduler,
                gateway=anchor.gateway,
                controller=controller,
                event_index=event.index,
                event_kind=event.kind,
                federation=coordinator,
            )
            violations = check_invariants(context, self.invariants)
            if violations:
                report.ok = False
                report.violations = violations
                break
        stats = coordinator.stats
        report.stats = {
            "submitted": stats.submitted,
            "cross_submitted": stats.cross_submitted,
            "committed": stats.committed,
            "accepted": stats.accepted,
            "rejected": stats.rejected,
            "cross_conflicts": stats.cross_conflicts,
            "cross_serial_fallbacks": stats.cross_serial_fallbacks,
            "lost_on_kill": stats.lost_on_kill,
            "shards_alive": stats.shards_alive,
            "shed": shed,
            "unroutable": unroutable,
            "withdrawn": len(withdrawn),
        }
        coordinator.close()
        return report


def run_shard_soak(
    seed: int,
    n_events: int,
    *,
    n_shards: int = 2,
    profile: FuzzProfile | None = None,
    quick: bool = False,
    invariants: Sequence[str] | None = None,
    sabotage: str | None = None,
    sabotage_after: int = 0,
) -> ShardSoakReport:
    """The federated soak pipeline: fuzz a network, bake a trace, run it.

    One seed fixes everything — topology, request stream, and the
    kill/restart schedule — so two calls with the same arguments produce
    identical reports (``ShardSoakReport.to_dict`` compares equal).
    """
    from repro.utils.rng import ensure_rng, spawn_rngs

    if profile is None:
        profile = FuzzProfile.quick() if quick else FuzzProfile()
    world_rng, trace_rng = spawn_rngs(ensure_rng(seed), 2)
    network, _family = fuzz_network(
        world_rng, profile, name=f"shard-chaos-seed{seed}"
    )
    n_shards = min(n_shards, len(network.ncp_names))
    events = generate_shard_events(
        trace_rng, n_events, network, n_shards=n_shards, profile=profile
    )
    driver = ShardChaosDriver(
        network,
        n_shards=n_shards,
        invariants=invariants,
        sabotage=(
            builtin_shard_sabotage(sabotage) if sabotage is not None else None
        ),
        sabotage_after=sabotage_after,
    )
    report = driver.run(events)
    report.seed = seed
    return report
