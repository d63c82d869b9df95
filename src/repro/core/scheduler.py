"""SPARCLE's multi-application control loop (Fig. 3 of the paper).

Applications arrive over time and are admitted (or rejected) one at a time;
placements of already-admitted applications never change (migration is
assumed prohibitively expensive), but Best-Effort *rates* are re-optimized
on every arrival.

Guaranteed-Rate (GR) applications
    reserve capacity exclusively.  On arrival, task assignment paths are
    found one at a time with Algorithm 2 against the GR-residual view; each
    path reserves ``min(path rate, requested rate)`` — reserving beyond the
    guarantee would only starve later applications — and paths keep being
    added until the failure-free aggregate reaches the guarantee and the
    Eq.-(7) min-rate availability meets the request (accept), or the path
    budget/network is exhausted (reject, releasing reservations).

Best-Effort (BE) applications
    share whatever the GR reservations leave.  Before placing application
    ``J``, the scheduler *predicts* its fair share of every contested
    element via Theorem 3 / Eq. (6) and hands Algorithm 2 the predicted
    view — so the placement an app receives is (approximately) independent
    of its arrival position.  Paths are added until the requested
    availability is met; finally Problem (4) is re-solved over all admitted
    BE applications for the exact rates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.allocation import (
    AllocationResult,
    BEApp,
    predicted_view,
    solve_proportional_fairness,
)
from repro.core.assignment import AssignmentResult, sparcle_assign
from repro.core.availability import (
    PathProfile,
    any_path_availability,
    min_rate_availability,
)
from repro.core.network import Network, ResidualSnapshot
from repro.core.placement import CapacityView, Loads, Placement
from repro.core.taskgraph import BANDWIDTH, TaskGraph
from repro.exceptions import (
    AdmissionError,
    InfeasiblePlacementError,
    SparcleError,
)
from repro.perf import get_metrics, tracing

#: Signature of a task-assignment algorithm pluggable into the scheduler.
Assigner = Callable[[TaskGraph, Network, CapacityView], AssignmentResult]

#: Rates below this are useless in practice and fail admission.
MIN_USEFUL_RATE = 1e-9


@dataclass(frozen=True)
class BERequest:
    """A Best-Effort application request.

    ``availability`` is the optional requested probability that at least
    one path is working; ``None`` means a single path suffices.
    """

    app_id: str
    graph: TaskGraph
    priority: float = 1.0
    availability: float | None = None
    max_paths: int = 4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.priority) and self.priority > 0):
            raise AdmissionError(
                f"BE app {self.app_id!r} needs a positive finite priority"
            )
        if self.availability is not None and not 0.0 <= self.availability <= 1.0:
            raise AdmissionError(
                f"BE app {self.app_id!r} availability must be in [0, 1]"
            )
        if self.max_paths < 1:
            raise AdmissionError(f"BE app {self.app_id!r} needs max_paths >= 1")


@dataclass(frozen=True)
class GRRequest:
    """A Guaranteed-Rate application request.

    The application needs rate ``min_rate`` for at least the
    ``min_rate_availability`` fraction of time (e.g. 2 images/sec in 90% of
    the time).
    """

    app_id: str
    graph: TaskGraph
    min_rate: float
    min_rate_availability: float = 0.0
    max_paths: int = 5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.min_rate) and self.min_rate > 0):
            raise AdmissionError(
                f"GR app {self.app_id!r} needs a positive finite min_rate"
            )
        if not 0.0 <= self.min_rate_availability <= 1.0:
            raise AdmissionError(
                f"GR app {self.app_id!r} min-rate availability must be in [0, 1]"
            )
        if self.max_paths < 1:
            raise AdmissionError(f"GR app {self.app_id!r} needs max_paths >= 1")


@dataclass(frozen=True)
class Decision:
    """Outcome of one admission attempt."""

    app_id: str
    kind: str  # "BE" or "GR"
    accepted: bool
    placements: tuple[Placement, ...] = ()
    path_rates: tuple[float, ...] = ()
    availability: float | None = None
    reason: str = ""

    @property
    def total_rate(self) -> float:
        """Aggregate rate over all admitted paths."""
        return sum(self.path_rates)


@dataclass(frozen=True)
class AdmissionProposal:
    """A candidate admission outcome, not yet committed to any scheduler.

    Produced by :func:`evaluate_admission` (and by
    :meth:`SparcleScheduler.evaluate`); carries everything
    :meth:`SparcleScheduler.commit` needs to turn the proposal into an
    admitted application.
    """

    request: "BERequest | GRRequest"
    kind: str  # "BE" or "GR"
    accepted: bool
    placements: tuple[Placement, ...] = ()
    path_rates: tuple[float, ...] = ()
    availability: float | None = None
    reason: str = ""

    @property
    def app_id(self) -> str:
        """The application id the proposal is for."""
        return self.request.app_id

    @property
    def total_rate(self) -> float:
        """Aggregate rate over all proposed paths."""
        return sum(self.path_rates)

    def used_elements(self) -> frozenset[str]:
        """Every network element any proposed path depends on."""
        out: set[str] = set()
        for placement in self.placements:
            out |= placement.used_elements()
        return frozenset(out)


@dataclass
class _PlacedBE:
    request: BERequest
    placements: tuple[Placement, ...]
    predicted_rates: tuple[float, ...] = ()
    # Per-path activity flag, parallel to ``placements``.  A path crossing a
    # down element is *suspended* (False): its placement maps are preserved
    # (no migration) but it carries no traffic and is excluded from the
    # Problem-(4) allocation until every element it uses is back up.
    active: list[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.active:
            self.active = [True] * len(self.placements)

    def holds(self) -> list[tuple[Loads, float]]:
        """What the FCFS ledger holds for it: active paths, predicted rates."""
        return [
            (p.loads(), rate)
            for p, rate, active in zip(
                self.placements, self.predicted_rates, self.active
            )
            if active
        ]


@dataclass
class _PlacedGR:
    request: GRRequest
    placements: tuple[Placement, ...]
    path_rates: tuple[float, ...]
    # Per-path activity flag (see _PlacedBE.active); a suspended GR path
    # holds nothing.
    active: list[bool] = field(default_factory=list)
    # Failure-free aggregate rate at admission time: the repair loop never
    # reserves beyond it, which is what keeps post-repair aggregates
    # bracketed by the pre-failure rate.
    baseline_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.active:
            self.active = [True] * len(self.placements)
        if not self.baseline_rate:
            self.baseline_rate = sum(self.path_rates)

    def active_rate(self) -> float:
        """Aggregate reserved rate over currently active paths."""
        return sum(r for r, a in zip(self.path_rates, self.active) if a)

    def holds(self) -> list[tuple[Loads, float]]:
        """What it holds: each active path at its reserved rate."""
        return [
            (p.loads(), rate)
            for p, rate, active in zip(self.placements, self.path_rates, self.active)
            if active
        ]


@dataclass(frozen=True)
class PathRecord:
    """Read-only view of one admitted task assignment path."""

    placement: Placement
    rate: float
    active: bool


@dataclass(frozen=True)
class GRHealth:
    """Whether one GR app's guarantee currently holds over its active paths."""

    app_id: str
    active_rate: float
    availability: float
    rate_met: bool
    availability_met: bool

    @property
    def ok(self) -> bool:
        """True when both the rate and the availability guarantees hold."""
        return self.rate_met and self.availability_met


@dataclass(frozen=True)
class BEHealth:
    """Whether one BE app's requested availability holds over active paths."""

    app_id: str
    active_paths: int
    availability: float | None
    availability_met: bool

    @property
    def ok(self) -> bool:
        """True when at least one path is active and availability is met."""
        return self.active_paths > 0 and self.availability_met


@dataclass(frozen=True)
class ReplanReport:
    """Outcome of re-placing one GR application after a network change."""

    app_id: str
    readmitted: bool
    old_total_rate: float
    new_total_rate: float
    moved_cts: int
    decision: "Decision"


@dataclass(frozen=True)
class FluctuationReport:
    """Outcome of a permanent capacity change (Fig. 3's dynamic network)."""

    changes: dict[str, dict[str, float]]
    gr_new_rates: dict[str, float]
    gr_guarantee_met: dict[str, bool]
    throttle_factors: dict[str, float]

    @property
    def violated_guarantees(self) -> list[str]:
        """GR apps whose min-rate guarantee the fluctuation breaks."""
        return sorted(
            app_id for app_id, met in self.gr_guarantee_met.items() if not met
        )


@dataclass(frozen=True)
class OutageReport:
    """Per-application QoE under a hypothetical element outage."""

    down_elements: frozenset[str]
    gr_surviving_rate: dict[str, float]
    gr_guarantee_met: dict[str, bool]
    be_alive: dict[str, bool]
    be_rates: dict[str, float]

    @property
    def violated_guarantees(self) -> list[str]:
        """GR apps whose min-rate guarantee the outage breaks."""
        return sorted(
            app_id for app_id, met in self.gr_guarantee_met.items() if not met
        )


@dataclass
class SchedulerState:
    """A read-only snapshot of what the scheduler has admitted."""

    be_apps: tuple[str, ...]
    gr_apps: tuple[str, ...]
    gr_total_rate: float
    residual: dict[str, dict[str, float]] = field(default_factory=dict)


def _evaluate_gr(
    request: GRRequest,
    network: Network,
    working: CapacityView,
    assigner: Assigner,
) -> AdmissionProposal:
    """Pure GR admission evaluation: the Algorithm-2 path loop + Eq. (7)."""
    tr = tracing.get_tracer()
    placements: list[Placement] = []
    rates: list[float] = []
    reason = ""
    accepted = False
    availability = 0.0
    for _ in range(request.max_paths):
        try:
            result = assigner(request.graph, network, working)
        except InfeasiblePlacementError as error:
            reason = f"assignment infeasible: {error}"
            break
        if result.rate <= MIN_USEFUL_RATE:
            reason = "no residual capacity for another path"
            break
        # Reserve at most the guaranteed rate per path: a path faster
        # than the guarantee satisfies it alone, and reserving the
        # surplus would only starve later applications.
        rate = min(result.rate, request.min_rate)
        if tr.enabled:
            tr.event(
                "admission.path",
                app_id=request.app_id,
                kind="GR",
                path_index=len(placements),
                rate=rate,
                raw_rate=result.rate,
                bottleneck_elements=result.placement.bottleneck_elements(
                    working
                ),
            )
        placements.append(result.placement)
        rates.append(rate)
        working.consume(result.placement.loads(), rate)
        profiles = [
            PathProfile.of(p, r) for p, r in zip(placements, rates)
        ]
        availability = min_rate_availability(
            network, profiles, request.min_rate
        )
        # Admission needs (a) the failure-free aggregate rate to reach
        # the guarantee (otherwise a 0%-availability request would be
        # vacuously accepted at any rate) and (b) Eq. (7) to meet the
        # requested min-rate availability.
        total_rate = sum(rates)
        if tr.enabled:
            tr.event(
                "admission.availability_check",
                app_id=request.app_id,
                paths=len(placements),
                total_rate=total_rate,
                min_rate=request.min_rate,
                availability=availability,
                required_availability=request.min_rate_availability,
            )
        if (
            total_rate >= request.min_rate - 1e-12
            and availability >= request.min_rate_availability - 1e-12
        ):
            accepted = True
            break
    if accepted:
        return AdmissionProposal(
            request, "GR", True, tuple(placements), tuple(rates), availability
        )
    if not reason:
        total_rate = sum(rates)
        if total_rate < request.min_rate:
            reason = (
                f"aggregate rate {total_rate:.4f} < required "
                f"{request.min_rate} with {request.max_paths} paths"
            )
        else:
            reason = (
                f"min-rate availability {availability:.4f} < "
                f"{request.min_rate_availability} with {request.max_paths} paths"
            )
    return AdmissionProposal(request, "GR", False, reason=reason)


def _evaluate_be(
    request: BERequest,
    network: Network,
    view: CapacityView,
    assigner: Assigner,
) -> AdmissionProposal:
    """Pure BE admission evaluation against a (predicted or FCFS) view."""
    tr = tracing.get_tracer()
    placements: list[Placement] = []
    predicted_rates: list[float] = []
    reason = ""
    accepted = False
    availability: float | None = None
    target = request.availability
    for _ in range(request.max_paths):
        try:
            result = assigner(request.graph, network, view)
        except InfeasiblePlacementError as error:
            reason = f"assignment infeasible: {error}"
            break
        if result.rate <= MIN_USEFUL_RATE:
            reason = "no predicted capacity for another path"
            break
        if tr.enabled:
            tr.event(
                "admission.path",
                app_id=request.app_id,
                kind="BE",
                path_index=len(placements),
                rate=result.rate,
                raw_rate=result.rate,
                bottleneck_elements=result.placement.bottleneck_elements(
                    view
                ),
            )
        placements.append(result.placement)
        predicted_rates.append(result.rate)
        view.consume(result.placement.loads(), result.rate)
        if target is None:
            accepted = True
            break
        availability = any_path_availability(network, placements)
        if tr.enabled:
            tr.event(
                "admission.availability_check",
                app_id=request.app_id,
                paths=len(placements),
                availability=availability,
                required_availability=target,
            )
        if availability >= target - 1e-12:
            accepted = True
            break
    if accepted:
        return AdmissionProposal(
            request,
            "BE",
            True,
            tuple(placements),
            tuple(predicted_rates),
            availability,
        )
    if not reason:
        reached = availability if availability is not None else 0.0
        reason = (
            f"availability {reached:.4f} < {target} "
            f"with {request.max_paths} paths"
        )
    return AdmissionProposal(request, "BE", False, reason=reason)


def evaluate_admission(
    request: BERequest | GRRequest,
    network: Network,
    view: CapacityView,
    *,
    assigner: Assigner = sparcle_assign,
) -> AdmissionProposal:
    """Evaluate one admission request without touching any scheduler state.

    This is the side-effect-free half of the Fig.-3 admit path: candidate
    task assignment paths are found with ``assigner`` against ``view`` (a
    *private* working copy — it is consumed in place as paths are added,
    so pass a copy, a thawed snapshot, or a predicted view, never a live
    residual), and the request's rate/availability targets decide
    acceptance.  The returned :class:`AdmissionProposal` is inert: nothing
    is reserved until :meth:`SparcleScheduler.commit` applies it.
    """
    if isinstance(request, GRRequest):
        return _evaluate_gr(request, network, view, assigner)
    if isinstance(request, BERequest):
        return _evaluate_be(request, network, view, assigner)
    raise AdmissionError(f"unsupported request type {type(request).__name__!r}")


class SparcleScheduler:
    """Admission control + placement + allocation for one network.

    ``assigner`` defaults to Algorithm 2 but any function with the
    :data:`Assigner` signature can be substituted (the Fig. 13/14
    experiments plug the baselines in here).
    """

    def __init__(
        self,
        network: Network,
        *,
        assigner: Assigner = sparcle_assign,
        allocation_method: str = "auto",
        use_prediction: bool = True,
    ) -> None:
        self.network = network
        self.assigner = assigner
        self.allocation_method = allocation_method
        # Theorem-3 / Eq. (6) capacity prediction for arriving BE apps.
        # Disabling it (ablation A3) makes placements first-come-first-
        # served: early arrivals grab the best spots regardless of priority.
        self.use_prediction = use_prediction
        # Permanent capacity fluctuations: element -> resource -> value.
        self._capacity_overrides: dict[str, dict[str, float]] = {}
        # Elements currently down (transient outages, repair loop).
        self._down: set[str] = set()
        # Attached online repair controller, if any (see repro.core.repair).
        self._repair_controller = None
        # Residual view after GR reservations; BE apps share this.  It
        # holds the active GR paths and the external reservations.
        self._gr_residual = CapacityView(network)
        # FCFS ledger for the no-prediction ablation: it holds what the
        # residual does plus every BE app's active paths at their
        # predicted rates, so later arrivals see leftovers only.  Under
        # prediction nothing reads it, so it is not kept at all.
        self._fcfs_view: CapacityView | None = (
            None if use_prediction else CapacityView(network)
        )
        self._be: dict[str, _PlacedBE] = {}
        self._gr: dict[str, _PlacedGR] = {}
        # External reservations: capacity held on behalf of tenants this
        # scheduler does not manage (cross-shard apps reserved by a
        # ShardCoordinator, or apps adopted from an event log after a
        # warm start).  tag -> ((loads, rate), ...).
        self._external: dict[str, tuple[tuple[Loads, float], ...]] = {}
        # BE apps adopted from an event log: held on the FCFS ledger only.
        self._adopted_be: dict[str, tuple[tuple[Loads, float], ...]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state(self) -> SchedulerState:
        """Snapshot of admitted apps and the GR-residual capacities."""
        return SchedulerState(
            be_apps=tuple(self._be),
            gr_apps=tuple(self._gr),
            gr_total_rate=sum(p.active_rate() for p in self._gr.values()),
            residual=self._gr_residual.snapshot(),
        )

    def _observe_decision(self, decision: Decision) -> None:
        """Report one admission outcome to the observability layer."""
        tr = tracing.get_tracer()
        if tr.enabled:
            tr.event(
                "admission.decision",
                app_id=decision.app_id,
                kind=decision.kind,
                accepted=decision.accepted,
                reason=decision.reason,
                paths=len(decision.placements),
                total_rate=decision.total_rate,
                availability=decision.availability,
            )
        metrics = get_metrics()
        metrics.incr(
            "scheduler.decisions",
            kind=decision.kind,
            accepted=str(decision.accepted).lower(),
        )
        if decision.accepted:
            metrics.set_gauge(
                "scheduler.admitted_rate",
                decision.total_rate,
                app=decision.app_id,
                kind=decision.kind,
            )

    # ------------------------------------------------------------------
    # Admission: evaluate (pure) / commit (state change)
    # ------------------------------------------------------------------
    def _be_admission_view(self, request: BERequest) -> CapacityView:
        """The view a BE request is evaluated against (predicted or FCFS)."""
        if self._fcfs_view is not None:
            # FCFS ablation: see only what earlier BE arrivals left behind.
            return self._fcfs_view.copy()
        tenants = [
            (placed.request.priority, list(placed.placements))
            for placed in self._be.values()
        ]
        return predicted_view(self._gr_residual, request.priority, tenants)

    def evaluate(self, request: "BERequest | GRRequest") -> AdmissionProposal:
        """Evaluate one request against the current state, mutating nothing.

        The pure half of :meth:`submit_gr`/:meth:`submit_be`: candidate
        paths are found against a private copy of the relevant view, and
        the returned :class:`AdmissionProposal` reserves nothing until
        :meth:`commit` applies it.  Raises for app ids already admitted.
        """
        if self._known(request.app_id):
            raise AdmissionError(f"app id {request.app_id!r} already submitted")
        if isinstance(request, GRRequest):
            view = self._gr_residual.copy()
        elif isinstance(request, BERequest):
            view = self._be_admission_view(request)
        else:
            raise AdmissionError(
                f"unsupported request type {type(request).__name__!r}"
            )
        return evaluate_admission(
            request, self.network, view, assigner=self.assigner
        )

    def residual_snapshot(self) -> ResidualSnapshot:
        """Freeze the live GR-residual view (see ``CapacityView.freeze``).

        The cheap, immutable, bit-exact capture of the scheduler's
        capacity state — what the sharded control plane writes into an
        event-log checkpoint and compares after a warm start.
        """
        return self._gr_residual.freeze()

    def fcfs_snapshot(self) -> ResidualSnapshot | None:
        """Freeze the FCFS ledger (no-prediction ablation); ``None`` under
        prediction, which keeps no ledger."""
        if self._fcfs_view is None:
            return None
        return self._fcfs_view.freeze()

    def external_tags(self) -> tuple[str, ...]:
        """Tags of currently-held external reservations, insertion order."""
        return tuple(self._external)

    def external_consumptions(
        self, tag: str
    ) -> tuple[tuple[Loads, float], ...]:
        """The ``(loads, rate)`` pairs held under one external tag."""
        try:
            return self._external[tag]
        except KeyError:
            raise AdmissionError(f"no external reservation {tag!r}") from None

    def reserve_external(
        self, tag: str, consumptions: Sequence[tuple[Loads, float]]
    ) -> frozenset[str]:
        """Reserve capacity on behalf of an externally-managed tenant.

        ``consumptions`` is a sequence of ``(loads, rate)`` pairs (one per
        placement path), held on the live views atomically —
        :class:`~repro.exceptions.PlacementError` if the reservation does
        not fit, in which case nothing changes.  The tag behaves like an
        admitted app id: duplicates are rejected and :meth:`withdraw`
        releases it.  Returns the elements whose view entries changed.
        """
        if self._known(tag):
            raise AdmissionError(f"app id {tag!r} already submitted")
        held = tuple((loads, rate) for loads, rate in consumptions)
        self._gr_residual.reserve(held)
        self._hold(held, ledger_only=True)
        self._external[tag] = held
        return frozenset(element for loads, _ in held for element in loads)

    def adopt_be(
        self, app_id: str, consumptions: Sequence[tuple[Loads, float]]
    ) -> None:
        """Adopt a BE app from an event log as an opaque tenant.

        It holds no GR capacity.  Without prediction its logged
        ``(loads, predicted rate)`` pairs stay held on the FCFS ledger
        until :meth:`withdraw`, as they were before the restart; under
        prediction nothing is held.
        """
        if self._known(app_id):
            raise AdmissionError(f"app id {app_id!r} already submitted")
        held = tuple((loads, rate) for loads, rate in consumptions)
        self._hold(held, ledger_only=True)
        self._adopted_be[app_id] = held

    def _hold(
        self, holds: Iterable[tuple[Loads, float]], *, ledger_only: bool
    ) -> None:
        """Consume ``holds`` on the FCFS ledger and, unless ``ledger_only``,
        on the GR residual (unchecked: see :meth:`CapacityView.reserve`)."""
        views = self._views(ledger_only)
        for loads, rate in holds:
            for view in views:
                view.consume(loads, rate)

    def _views(self, ledger_only: bool) -> list[CapacityView]:
        """The kept views a GR (or, ``ledger_only``, a BE) hold lives on."""
        views = [] if ledger_only else [self._gr_residual]
        if self._fcfs_view is not None:
            views.append(self._fcfs_view)
        return views

    def commit(self, proposal: AdmissionProposal) -> Decision:
        """Apply one proposal: reserve capacity and return the decision.

        The scheduler keeps no decision history (a caller that needs one
        keeps the returned decisions); an admitted app's placements live
        in its app table until :meth:`withdraw`.  The proposal is trusted to have been evaluated against the state
        it is committed to (:meth:`evaluate` immediately before, as the
        gateway and ``submit_*`` do).  An accepted GR proposal that no
        longer fits the live residuals raises
        :class:`~repro.exceptions.PlacementError` and changes nothing.
        """
        request = proposal.request
        if self._known(request.app_id):
            raise AdmissionError(f"app id {request.app_id!r} already submitted")
        if proposal.kind == "GR":
            decision = self._commit_gr(proposal)
        elif proposal.kind == "BE":
            decision = self._commit_be(proposal)
        else:
            raise AdmissionError(f"unsupported proposal kind {proposal.kind!r}")
        self._observe_decision(decision)
        return decision

    def _commit_gr(self, proposal: AdmissionProposal) -> Decision:
        request = proposal.request
        if not proposal.accepted:
            return Decision(
                request.app_id, "GR", False, reason=proposal.reason
            )
        placed = _PlacedGR(request, proposal.placements, proposal.path_rates)
        # A proposal that does not fit leaves the live residual untouched.
        self._gr_residual.reserve(placed.holds())
        self._hold(placed.holds(), ledger_only=True)
        self._gr[request.app_id] = placed
        return Decision(
            request.app_id,
            "GR",
            True,
            proposal.placements,
            proposal.path_rates,
            proposal.availability,
        )

    def _commit_be(self, proposal: AdmissionProposal) -> Decision:
        request = proposal.request
        if not proposal.accepted:
            return Decision(
                request.app_id, "BE", False, reason=proposal.reason
            )
        placed = _PlacedBE(request, proposal.placements, proposal.path_rates)
        self._be[request.app_id] = placed
        self._hold(placed.holds(), ledger_only=True)
        return Decision(
            request.app_id,
            "BE",
            True,
            proposal.placements,
            proposal.path_rates,
            proposal.availability,
        )

    # ------------------------------------------------------------------
    # GR admission
    # ------------------------------------------------------------------
    def submit_gr(self, request: GRRequest) -> Decision:
        """Admit (reserving capacity) or reject a Guaranteed-Rate app."""
        return self.commit(self.evaluate(request))

    # ------------------------------------------------------------------
    # BE admission
    # ------------------------------------------------------------------
    def submit_be(self, request: BERequest) -> Decision:
        """Place a Best-Effort app (Theorem-3 prediction + availability loop)."""
        return self.commit(self.evaluate(request))

    # ------------------------------------------------------------------
    # Exact BE allocation (step 4 of Fig. 3)
    # ------------------------------------------------------------------
    def allocate_be(self) -> AllocationResult:
        """Solve Problem (4) for all admitted BE apps on the GR residual.

        Called after any batch of arrivals; the returned per-path rates are
        the rates the applications actually receive.  A later GR
        reservation (or capacity fluctuation) may have drained an element a
        BE path crosses to zero — such paths are *starved* and carry zero
        rate; an application whose every path is starved reports rate 0 and
        is excluded from the log-utility optimization (which needs strictly
        positive rates).
        """
        if not self._be:
            raise AdmissionError("no admitted BE applications to allocate")

        def starved(loads: Loads) -> bool:
            for element, bucket in loads.items():
                for resource, load in bucket.items():
                    if load > 0 and self._gr_residual.capacity(element, resource) <= 0:
                        return True
            return False

        apps: list[BEApp] = []
        zero_apps: list[_PlacedBE] = []
        for placed in self._be.values():
            # loads() is memoized on the placement, so the per-element
            # starvation sweep reuses one load vector per path instead of
            # rebuilding it from the task graph on every allocate_be call.
            # Suspended paths (element outages) are excluded outright.
            surviving = tuple(
                p
                for p, active in zip(placed.placements, placed.active)
                if active and not starved(p.loads())
            )
            if surviving:
                apps.append(
                    BEApp(placed.request.app_id, placed.request.priority, surviving)
                )
            else:
                zero_apps.append(placed)
        if not apps:
            return AllocationResult(
                app_rates={p.request.app_id: 0.0 for p in zero_apps},
                path_rates={
                    p.request.app_id: (0.0,) * len(p.placements)
                    for p in zero_apps
                },
                utility=float("-inf"),
                solver="starved",
            )
        allocation = solve_proportional_fairness(
            apps, self._gr_residual, method=self.allocation_method
        )
        for placed in zero_apps:
            allocation.app_rates[placed.request.app_id] = 0.0
            allocation.path_rates[placed.request.app_id] = (0.0,) * len(
                placed.placements
            )
        return allocation

    def be_rate(self, app_id: str) -> float:
        """Convenience: the currently allocated total rate of one BE app."""
        allocation = self.allocate_be()
        try:
            return allocation.app_rates[app_id]
        except KeyError:
            raise AdmissionError(f"no admitted BE app {app_id!r}") from None

    # ------------------------------------------------------------------
    # Lifecycle: departures and outages
    # ------------------------------------------------------------------
    def withdraw(self, app_id: str) -> frozenset[str]:
        """Remove an admitted application, releasing its capacity.

        Every hold the application has live is subtracted from the views
        it was added to — the exact inverse of its consumes, so capacity
        changes and outages applied since admission stay respected.  BE
        rates are re-derived on the next :meth:`allocate_be`.  Returns
        the elements whose view entries changed: empty for a BE
        application under prediction, which holds nothing.  Unknown ids
        raise.
        """
        if app_id in self._gr:
            return self._release(self._gr.pop(app_id).holds(), ledger_only=False)
        if app_id in self._be:
            return self._release(self._be.pop(app_id).holds(), ledger_only=True)
        if app_id in self._external:
            return self._release(self._external.pop(app_id), ledger_only=False)
        if app_id in self._adopted_be:
            return self._release(self._adopted_be.pop(app_id), ledger_only=True)
        raise AdmissionError(f"no admitted app {app_id!r} to withdraw")

    def _release(
        self, holds: Sequence[tuple[Loads, float]], *, ledger_only: bool
    ) -> frozenset[str]:
        """Subtract ``holds`` from the views they live on; the elements."""
        views = self._views(ledger_only)
        for loads, rate in holds:
            for view in views:
                view.release(loads, rate)
        if not views:
            return frozenset()
        return frozenset(element for loads, _ in holds for element in loads)

    def _capacity(self, element: str, resource: str) -> float:
        """An entry's current capacity: fluctuations applied, zero while down."""
        if element in self._down:
            return 0.0
        bucket = self._capacity_overrides.get(element, {})
        if resource in bucket:
            return bucket[resource]
        return self.network.capacity(element, resource)

    def _set_capacity(self, element: str) -> None:
        """Write one element's current capacity into the kept views."""
        for resource in set(self.network.resources()) | {BANDWIDTH}:
            capacity = self._capacity(element, resource)
            for view in self._views(False):
                view.override(element, resource, capacity)

    def apply_capacity_change(
        self, changes: dict[str, dict[str, float]]
    ) -> "FluctuationReport":
        """Handle a permanent capacity fluctuation (the paper's future work).

        ``changes`` maps ``element -> {resource: new_capacity}``.  Admitted
        placements never migrate; instead:

        1. every GR path crossing an element whose reservations now exceed
           the new capacity is *throttled* — its reserved rate shrinks by
           the element's over-subscription factor (the min over the path's
           elements), so the post-change reservations are feasible again;
        2. the views take the new capacities (their holds stay, the
           throttled paths' at the new rates), so BE rates re-solved by
           :meth:`allocate_be` reflect the new world;
        3. the report lists each GR app's new aggregate rate and whether
           its guarantee survived (violated apps stay admitted — evicting
           or re-placing them is the operator's call, e.g. via
           :meth:`withdraw` and a fresh submission).
        """
        for element, bucket in changes.items():
            self.network.element(element)
            for resource, value in bucket.items():
                if value < 0:
                    raise AdmissionError(
                        f"capacity for {element}/{resource} must be non-negative"
                    )
                self._capacity_overrides.setdefault(element, {})[resource] = value

        # Per-(element, resource) GR usage under current reservations.
        usage: dict[tuple[str, str], float] = {}
        for placed_gr in self._gr.values():
            for placement, rate, is_active in zip(
                placed_gr.placements, placed_gr.path_rates, placed_gr.active
            ):
                if not is_active:
                    continue
                for element, bucket in placement.loads().items():
                    for resource, load in bucket.items():
                        if load > 0:
                            key = (element, resource)
                            usage[key] = usage.get(key, 0.0) + rate * load
        shrink: dict[tuple[str, str], float] = {}
        for key, used in usage.items():
            capacity = self._capacity(*key)
            if used > capacity + 1e-12:
                shrink[key] = capacity / used if used > 0 else 0.0

        gr_new_rates: dict[str, float] = {}
        gr_guarantee_met: dict[str, bool] = {}
        throttled: dict[str, float] = {}
        for placed_gr in self._gr.values():
            new_rates = []
            for placement, rate, is_active in zip(
                placed_gr.placements, placed_gr.path_rates, placed_gr.active
            ):
                if not is_active:
                    new_rates.append(rate)  # suspended: no reservation to throttle
                    continue
                factor = 1.0
                for element, bucket in placement.loads().items():
                    for resource, load in bucket.items():
                        if load > 0:
                            factor = min(factor, shrink.get((element, resource), 1.0))
                new_rates.append(rate * factor)
                if factor < 1.0:
                    throttled[placed_gr.request.app_id] = min(
                        throttled.get(placed_gr.request.app_id, 1.0), factor
                    )
                    self._release([(placement.loads(), rate)], ledger_only=False)
                    self._hold([(placement.loads(), rate * factor)], ledger_only=False)
            placed_gr.path_rates = tuple(new_rates)
            total = placed_gr.active_rate()
            gr_new_rates[placed_gr.request.app_id] = total
            gr_guarantee_met[placed_gr.request.app_id] = (
                total >= placed_gr.request.min_rate - 1e-12
            )
        for element in changes:
            self._set_capacity(element)
        return FluctuationReport(
            changes={e: dict(b) for e, b in changes.items()},
            gr_new_rates=gr_new_rates,
            gr_guarantee_met=gr_guarantee_met,
            throttle_factors=throttled,
        )

    def qoe_under_outage(self, down_elements: frozenset[str] | set[str]) -> "OutageReport":
        """What every admitted app gets if the given elements are down.

        Read-only (the Fig. 3 "check QoE" box): a path survives only if it
        touches none of the down elements.  GR apps report the surviving
        reserved rate and whether the guarantee still holds; BE apps report
        whether any path survives, and Problem (4) is re-solved over the
        surviving paths only.
        """
        down = frozenset(down_elements)
        for element in down:
            self.network.element(element)
        gr_status: dict[str, tuple[float, bool]] = {}
        for placed_gr in self._gr.values():
            surviving = sum(
                rate
                for placement, rate, is_active in zip(
                    placed_gr.placements, placed_gr.path_rates, placed_gr.active
                )
                if is_active and not placement.used_elements() & down
            )
            gr_status[placed_gr.request.app_id] = (
                surviving,
                surviving >= placed_gr.request.min_rate - 1e-12,
            )
        be_alive: dict[str, bool] = {}
        surviving_apps: list[BEApp] = []
        for placed_be in self._be.values():
            paths = tuple(
                p
                for p, is_active in zip(placed_be.placements, placed_be.active)
                if is_active and not p.used_elements() & down
            )
            be_alive[placed_be.request.app_id] = bool(paths)
            if paths:
                surviving_apps.append(
                    BEApp(placed_be.request.app_id, placed_be.request.priority, paths)
                )
        be_rates: dict[str, float] = {app_id: 0.0 for app_id in be_alive}
        if surviving_apps:
            # Down elements also stop serving the *surviving* paths' rivals;
            # allocate on a view with the outage applied.
            view = self._gr_residual.copy()
            for element in down:
                for resource in set(self.network.resources()) | {BANDWIDTH}:
                    if view.capacity(element, resource) > 0:
                        view.override(element, resource, 0.0)
            try:
                allocation = solve_proportional_fairness(
                    surviving_apps, view, method=self.allocation_method
                )
                be_rates.update(allocation.app_rates)
            except SparcleError:
                pass  # every surviving path crossed a dead element
        return OutageReport(
            down_elements=down,
            gr_surviving_rate={k: v[0] for k, v in gr_status.items()},
            gr_guarantee_met={k: v[1] for k, v in gr_status.items()},
            be_alive=be_alive,
            be_rates=be_rates,
        )

    # ------------------------------------------------------------------
    # Online failure repair support (driven by repro.core.repair)
    # ------------------------------------------------------------------
    @property
    def down_elements(self) -> frozenset[str]:
        """Elements currently marked down (transient outages)."""
        return frozenset(self._down)

    @property
    def repair_log(self) -> tuple:
        """Event log of the attached repair controller (empty when none)."""
        if self._repair_controller is None:
            return ()
        return tuple(self._repair_controller.events)

    def _find_gr(self, app_id: str) -> _PlacedGR:
        try:
            return self._gr[app_id]
        except KeyError:
            raise AdmissionError(f"no admitted GR app {app_id!r}") from None

    def _find_be(self, app_id: str) -> _PlacedBE:
        try:
            return self._be[app_id]
        except KeyError:
            raise AdmissionError(f"no admitted BE app {app_id!r}") from None

    @staticmethod
    def _normalize_kind(kind: str) -> str:
        """Validate and canonicalize a path-API kind selector."""
        normalized = str(kind).upper()
        if normalized not in ("GR", "BE"):
            raise AdmissionError(f"unknown application kind {kind!r}")
        return normalized

    def paths(self, app_id: str, kind: str = "GR") -> tuple[PathRecord, ...]:
        """Every path of one app: placement, (reserved/predicted) rate, activity.

        ``kind`` selects the application class (``"GR"`` or ``"BE"``,
        case-insensitive).  GR records carry reserved rates; BE records
        carry the admission-time predicted rates (actual BE rates come
        from :meth:`allocate_be`).
        """
        if self._normalize_kind(kind) == "GR":
            placed = self._find_gr(app_id)
            rates = placed.path_rates
        else:
            placed = self._find_be(app_id)
            rates = placed.predicted_rates
        return tuple(
            PathRecord(p, r, a)
            for p, r, a in zip(placed.placements, rates, placed.active)
        )

    def gr_baseline_rate(self, app_id: str) -> float:
        """The admission-time failure-free aggregate rate of one GR app."""
        return self._find_gr(app_id).baseline_rate

    def health(self, app_id: str, kind: str = "GR") -> GRHealth | BEHealth:
        """Guarantee status of one app over its *active* paths.

        ``kind`` selects the application class (``"GR"`` or ``"BE"``,
        case-insensitive).  For GR apps, ``availability`` is the Eq.-(7)
        min-rate availability recomputed over the active paths only — the
        number the repair loop compares against the requested level when
        deciding whether an app must be demoted to degraded status.  For
        BE apps it is the requested any-path availability.
        """
        if self._normalize_kind(kind) == "GR":
            return self._gr_health(app_id)
        return self._be_health(app_id)

    def _gr_health(self, app_id: str) -> GRHealth:
        placed = self._find_gr(app_id)
        request = placed.request
        profiles = [
            PathProfile.of(p, r)
            for p, r, a in zip(placed.placements, placed.path_rates, placed.active)
            if a
        ]
        availability = min_rate_availability(
            self.network, profiles, request.min_rate
        )
        total = placed.active_rate()
        return GRHealth(
            app_id=app_id,
            active_rate=total,
            availability=availability,
            rate_met=total >= request.min_rate - 1e-12,
            availability_met=availability >= request.min_rate_availability - 1e-12,
        )

    def _be_health(self, app_id: str) -> BEHealth:
        placed = self._find_be(app_id)
        active = [p for p, a in zip(placed.placements, placed.active) if a]
        target = placed.request.availability
        if target is None:
            return BEHealth(app_id, len(active), None, True)
        availability = any_path_availability(self.network, active)
        return BEHealth(
            app_id, len(active), availability, availability >= target - 1e-12
        )

    def mark_element_down(self, element: str) -> dict[str, list[int]]:
        """Suspend every admitted path crossing ``element`` (outage start).

        Surviving paths are untouched (the paper's no-migration rule);
        suspended paths keep their placement maps but release their holds,
        and the element itself contributes zero capacity until
        :meth:`mark_element_up`.  Returns
        ``app_id -> suspended path indices`` (empty when the element was
        already down or nothing crossed it).
        """
        self.network.element(element)
        if element in self._down:
            return {}
        self._down.add(element)
        suspended: dict[str, list[int]] = {}
        for placed_gr in self._gr.values():
            for index, placement in enumerate(placed_gr.placements):
                if placed_gr.active[index] and element in placement.used_elements():
                    placed_gr.active[index] = False
                    self._release(
                        [(placement.loads(), placed_gr.path_rates[index])],
                        ledger_only=False,
                    )
                    suspended.setdefault(placed_gr.request.app_id, []).append(index)
        for placed_be in self._be.values():
            for index, placement in enumerate(placed_be.placements):
                if placed_be.active[index] and element in placement.used_elements():
                    placed_be.active[index] = False
                    self._release(
                        [(placement.loads(), placed_be.predicted_rates[index])],
                        ledger_only=True,
                    )
                    suspended.setdefault(placed_be.request.app_id, []).append(index)
        self._set_capacity(element)
        tr = tracing.get_tracer()
        if tr.enabled:
            tr.event(
                "scheduler.element_down",
                element=element,
                suspended={k: list(v) for k, v in suspended.items()},
            )
        get_metrics().incr("scheduler.element_transitions", state="down")
        return suspended

    def mark_element_up(self, element: str) -> dict[str, list[int]]:
        """End an outage, reactivating suspended paths that fit again.

        A suspended path is reactivated when every element it uses is back
        up *and* re-reserving it is still worthwhile: GR paths come back at
        ``min(recorded rate, baseline headroom, residual-feasible rate)``
        (replacement paths placed during the outage may have taken part of
        the capacity), BE paths come back as long as the app stays within
        its path budget.  Returns ``app_id -> reactivated path indices``.
        """
        self.network.element(element)
        if element not in self._down:
            return {}
        self._down.discard(element)
        self._set_capacity(element)
        restored: dict[str, list[int]] = {}
        for placed_gr in self._gr.values():
            rates = list(placed_gr.path_rates)
            for index, placement in enumerate(placed_gr.placements):
                if placed_gr.active[index]:
                    continue
                if placement.used_elements() & self._down:
                    continue
                headroom = placed_gr.baseline_rate - placed_gr.active_rate()
                feasible = placement.bottleneck_rate(self._gr_residual)
                rate = min(rates[index], headroom, feasible)
                if rate <= MIN_USEFUL_RATE:
                    continue
                rates[index] = rate
                placed_gr.path_rates = tuple(rates)
                placed_gr.active[index] = True
                self._hold([(placement.loads(), rate)], ledger_only=False)
                restored.setdefault(placed_gr.request.app_id, []).append(index)
        for placed_be in self._be.values():
            for index, placement in enumerate(placed_be.placements):
                if placed_be.active[index]:
                    continue
                if placement.used_elements() & self._down:
                    continue
                if sum(placed_be.active) >= placed_be.request.max_paths:
                    break  # replacement paths already fill the budget
                placed_be.active[index] = True
                self._hold(
                    [(placement.loads(), placed_be.predicted_rates[index])],
                    ledger_only=True,
                )
                restored.setdefault(placed_be.request.app_id, []).append(index)
        tr = tracing.get_tracer()
        if tr.enabled:
            tr.event(
                "scheduler.element_up",
                element=element,
                restored={k: list(v) for k, v in restored.items()},
            )
        get_metrics().incr("scheduler.element_transitions", state="up")
        return restored

    def add_path(
        self, app_id: str, *, kind: str = "GR"
    ) -> tuple[Placement, float] | Placement | None:
        """Find and reserve one replacement path for a degraded app.

        ``kind`` selects the application class (``"GR"`` or ``"BE"``,
        case-insensitive).  For GR apps, Algorithm 2 runs against the
        current residual view (down elements contribute zero capacity, so
        replacements route around outages); the reserved rate is capped by
        the per-path guarantee *and* by the baseline headroom — repair
        never reserves beyond the app's admission-time aggregate, which
        keeps post-repair rates bracketed — and the method returns
        ``(placement, rate)``.  For BE apps, the same Theorem-3 predicted
        view as admission is used and the new ``Placement`` is returned.
        Either kind returns ``None`` when no useful path exists (or the
        path/rate budget is exhausted).
        """
        if self._normalize_kind(kind) == "GR":
            return self._add_gr_path(app_id)
        return self._add_be_path(app_id)

    def _add_gr_path(self, app_id: str) -> tuple[Placement, float] | None:
        placed = self._find_gr(app_id)
        if sum(placed.active) >= placed.request.max_paths:
            return None
        headroom = placed.baseline_rate - placed.active_rate()
        if headroom <= MIN_USEFUL_RATE:
            return None
        try:
            result = self.assigner(
                placed.request.graph, self.network, self._gr_residual.copy()
            )
        except InfeasiblePlacementError:
            return None
        if result.rate <= MIN_USEFUL_RATE:
            return None
        # A pinned zero-requirement CT can sit on a down host without
        # loading it; such a path would be born broken — refuse it.
        if result.placement.used_elements() & self._down:
            return None
        rate = min(result.rate, placed.request.min_rate, headroom)
        placed.placements = placed.placements + (result.placement,)
        placed.path_rates = placed.path_rates + (rate,)
        placed.active.append(True)
        self._hold([(result.placement.loads(), rate)], ledger_only=False)
        return result.placement, rate

    def _add_be_path(self, app_id: str) -> Placement | None:
        placed = self._find_be(app_id)
        if sum(placed.active) >= placed.request.max_paths:
            return None
        if self._fcfs_view is not None:
            view = self._fcfs_view.copy()
        else:
            tenants = [
                (
                    other.request.priority,
                    [
                        p
                        for p, a in zip(other.placements, other.active)
                        if a
                    ],
                )
                for other in self._be.values()
                if other is not placed
            ]
            view = predicted_view(
                self._gr_residual, placed.request.priority, tenants
            )
        try:
            result = self.assigner(placed.request.graph, self.network, view)
        except InfeasiblePlacementError:
            return None
        if result.rate <= MIN_USEFUL_RATE:
            return None
        if result.placement.used_elements() & self._down:
            return None
        placed.placements = placed.placements + (result.placement,)
        placed.predicted_rates = placed.predicted_rates + (result.rate,)
        placed.active.append(True)
        self._hold([(result.placement.loads(), result.rate)], ledger_only=True)
        return result.placement

    def replan(self, app_id: str) -> "ReplanReport":
        """Re-place one admitted GR application (withdraw + fresh admission).

        The paper treats migration as prohibitively expensive in steady
        state, but after a capacity fluctuation breaks a guarantee the
        operator's remaining lever is exactly this: release the app's
        reservations and let Algorithm 2 find new paths in the changed
        network.  The report carries the *migration cost* — how many CTs
        changed host — so the operator can weigh it.  If re-admission
        fails, the app stays withdrawn (the report says so).
        """
        placed = self._gr.get(app_id)
        if placed is None:
            raise AdmissionError(f"no admitted GR app {app_id!r} to replan")
        old_hosts = [dict(p.ct_hosts) for p in placed.placements]
        old_rate = sum(placed.path_rates)
        request = placed.request
        self.withdraw(app_id)
        decision = self.submit_gr(request)
        moved = 0
        if decision.accepted and old_hosts:
            # Compare the first (primary) path's hosts before/after.
            new_hosts = dict(decision.placements[0].ct_hosts)
            moved = sum(
                1 for ct, host in old_hosts[0].items()
                if new_hosts.get(ct) != host
            )
        return ReplanReport(
            app_id=app_id,
            readmitted=decision.accepted,
            old_total_rate=old_rate,
            new_total_rate=decision.total_rate if decision.accepted else 0.0,
            moved_cts=moved,
            decision=decision,
        )

    def _known(self, app_id: str) -> bool:
        return (
            app_id in self._gr
            or app_id in self._be
            or app_id in self._external
            or app_id in self._adopted_be
        )

    def has_app(self, app_id: str) -> bool:
        """Whether an application with this id is currently admitted."""
        return self._known(app_id)

    def app_ids(self) -> tuple[str, ...]:
        """Ids of every currently admitted application.

        GR reservations first, then BE apps, then external tenants
        (cross-shard reservations and warm-start adoptions) — the
        serving front-end's topology reply counts these.
        """
        return (
            tuple(self._gr)
            + tuple(self._be)
            + tuple(self._external)
            + tuple(self._adopted_be)
        )


def admit_all_gr(
    scheduler: SparcleScheduler,
    requests: list[GRRequest],
    *,
    order: str = "arrival",
) -> tuple[list[Decision], float]:
    """Submit GR requests and return decisions plus total admitted rate.

    The total admitted rate — the sum of reserved path rates over accepted
    applications — is the Fig. 14 metric.  ``order`` controls the admission
    sequence (an extension knob; the paper admits in arrival order):

    * ``"arrival"`` — as given;
    * ``"smallest-first"`` — ascending requested rate (classic knapsack
      heuristic: many small guarantees pack better);
    * ``"largest-first"`` — descending requested rate.

    Decisions are returned in the *original arrival order* regardless.
    """
    if order == "arrival":
        sequence = list(enumerate(requests))
    elif order == "smallest-first":
        sequence = sorted(enumerate(requests), key=lambda kv: kv[1].min_rate)
    elif order == "largest-first":
        sequence = sorted(enumerate(requests), key=lambda kv: -kv[1].min_rate)
    else:
        raise AdmissionError(f"unknown admission order {order!r}")
    decisions: list[Decision | None] = [None] * len(requests)
    for index, request in sequence:
        decisions[index] = scheduler.submit_gr(request)
    final = [d for d in decisions if d is not None]
    total = sum(d.total_rate for d in final if d.accepted)
    return final, total


def scheduler_with_baseline(network: Network, assigner: Assigner) -> SparcleScheduler:
    """A scheduler whose task assignment is a baseline algorithm.

    Used by the multi-application experiments to compare SPARCLE's dynamic
    ranking against T-Storm/VNE/GS/... under identical admission logic.
    """
    if not callable(assigner):
        raise SparcleError("assigner must be callable")
    return SparcleScheduler(network, assigner=assigner)
