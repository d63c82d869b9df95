"""Algorithm 2: SPARCLE's dynamic-ranking task assignment.

The assignment problem (Eq. (1)) — place every CT on an NCP and every TT on
a link path so as to maximize the bottleneck processing rate — is NP-hard
(Theorem 1).  SPARCLE's polynomial-time heuristic places one CT at a time:

1.  Pinned CTs (data sources / result consumers) are placed first on their
    predetermined hosts.
2.  For every unplaced CT ``i`` and candidate host ``j``, compute
    ``gamma(i, j)`` (Eq. (2)): the processing-rate bottleneck the placement
    would impose, combining (a) the NCP-side rate with ``i`` added to ``j``'s
    existing per-unit load and (b), for every already-placed CT reachable
    from ``i``, the widest-path bottleneck from ``j`` to that CT's host for
    the cheapest TT between them.
3.  Each CT's best host is ``j*_i = argmax_j gamma(i, j)``; the CT actually
    placed this round is the *most constrained* one,
    ``i* = argmin_i gamma(i, j*_i)`` (Algorithm 2 line 16) — the task whose
    best case is worst goes first, while resources are still plentiful.
4.  Placing ``i*`` commits its NCP load and routes the TTs to every
    already-placed *neighbour* via Algorithm 1, committing link loads.

Because ``gamma`` depends on what is already placed, the ranking changes
every round — hence "dynamic ranking".  The same machinery with a frozen
CT order implements the paper's GS/GRand baselines
(:func:`greedy_assign_with_order`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.arrays import (
    CompiledNetwork,
    FloatArray,
    IntArray,
    all_pairs_widths,
    compile_network,
)
from repro.core.network import Network
from repro.core.placement import CapacityView, Placement
from repro.core.routing import WeightsCache, cached_link_weights, widest_path
from repro.core.taskgraph import BANDWIDTH, ComputationTask, TaskGraph, TransportTask
from repro.exceptions import InfeasiblePlacementError, PlacementError
from repro.perf import counters, timed, tracing

#: gamma value marking a host from which some required TT cannot be routed.
UNREACHABLE = -math.inf


@dataclass
class AssignmentResult:
    """Outcome of one task-assignment run.

    ``rate`` is the stable bottleneck rate of ``placement`` under the
    capacities the assignment saw, and ``placement_order`` records the CT
    placement sequence (useful for debugging the dynamic ranking).
    """

    placement: Placement
    rate: float
    placement_order: tuple[str, ...] = ()


@dataclass
class _State:
    """Mutable working state of one assignment run."""

    graph: TaskGraph
    network: Network
    capacities: CapacityView
    ct_hosts: dict[str, str] = field(default_factory=dict)
    tt_routes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    ncp_loads: dict[str, dict[str, float]] = field(default_factory=dict)
    link_loads: dict[str, float] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    # Width of ``P*(u, v)`` for every NCP pair under the *current*
    # ``link_loads``, one table per TT megabits (arrays.all_pairs_widths).
    # Every Eq.-(2) link term and every tie-break bound is a cell read;
    # cleared with `_weights_cache` whenever a route loads links.
    _width_tables: dict[float, FloatArray] = field(default_factory=dict)

    # Exact bottleneck rate of the partial placement under the current
    # loads (the tie-break's common term).  `commit` folds the committed
    # host's new NCP-side rate in; a route that loads links drops it.
    _current_rate: float | None = None

    # The task graph is immutable, so the cheapest-TT argmin per CT pair
    # is memoized for the whole run.
    _cheapest_tt_cache: dict[tuple[str, str], TransportTask | None] = field(
        default_factory=dict
    )

    # Probe plan per (unplaced CT, placed CT): reachability, the cheapest
    # TT's megabits, and the probe direction are all static properties of
    # the task graph, so they are resolved once per pair.  ``None`` marks
    # a pair contributing no link-side term.
    _probe_plan_cache: dict[tuple[str, str], tuple[float, bool] | None] = field(
        default_factory=dict
    )

    # NCP-side Eq.-(2) term per (CT, host).  It changes only when the
    # host's committed loads change, so `commit` evicts one host bucket
    # and every other (CT, host) score is a dict probe across rounds.
    _ncp_term_cache: dict[str, dict[str, float]] = field(default_factory=dict)

    # Shared Eq.-(3) weight arrays for the *current* ``link_loads`` state
    # (see routing.WeightsCache); cleared whenever a commit loads links.
    _weights_cache: WeightsCache = field(default_factory=dict)

    # Part-(a) rate vector per CT for the host list `gamma_over_hosts`
    # sweeps (valid only for one host-list object, checked by identity).
    # `_dirty_hosts` logs each commit's host; a cached vector replays the
    # log suffix it has not seen instead of recomputing every entry.
    _rates_base: dict[str, tuple[FloatArray, int]] = field(default_factory=dict)
    _dirty_hosts: list[str] = field(default_factory=list)
    _hosts_ref: Sequence[str] | None = field(default=None, repr=False)
    _host_pos: dict[str, int] = field(default_factory=dict)

    # ``_hosts_ref`` resolved to compiled node ids (table row/column index).
    _host_ids: IntArray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @cached_property
    def _compiled(self) -> CompiledNetwork:
        return compile_network(self.network)

    def width_table(self, megabits: float) -> FloatArray:
        """All-pairs ``P*`` widths for a ``megabits`` TT under the current loads.

        ``table[u, v]`` (compiled node ids) equals
        ``widest_path(u, v, megabits, link_loads).bottleneck`` — ``+inf`` on
        the diagonal, ``-inf`` when unreachable — so a row answers every
        candidate host against one placed host, a column the reverse
        direction on directed networks.
        """
        table = self._width_tables.get(megabits)
        if table is None:
            counters.incr("assignment.width_tables")
            weights = cached_link_weights(
                self._compiled, self.capacities, megabits, self.link_loads,
                self._weights_cache,
            )
            table = self._width_tables[megabits] = all_pairs_widths(
                self._compiled, weights
            )
        return table

    def cheapest_tt(self, a: str, b: str) -> TransportTask | None:
        """Algorithm 2 line 12: argmin of ``a^(b)`` over ``G(a, b)``."""
        key = (a, b)
        if key in self._cheapest_tt_cache:
            return self._cheapest_tt_cache[key]
        candidates = self.graph.tts_between(a, b)
        cheapest = (
            min(candidates, key=lambda tt: (tt.megabits_per_unit, tt.name))
            if candidates
            else None
        )
        self._cheapest_tt_cache[key] = cheapest
        return cheapest

    def probe_plan(self, ct_name: str, other: str) -> tuple[float, bool] | None:
        """The static part of one gamma link-probe, memoized per CT pair.

        ``None`` when no probe is needed (``other`` unreachable from
        ``ct_name`` in the task graph, or no TT connects them); otherwise
        ``(megabits, reverse)`` — the cheapest TT's per-unit megabits and
        whether the probe runs *towards* the placed host (data flowing
        candidate -> placed, i.e. ``other`` downstream of ``ct_name``).
        """
        key = (ct_name, other)
        if key in self._probe_plan_cache:
            return self._probe_plan_cache[key]
        plan: tuple[float, bool] | None = None
        if other != ct_name and self.graph.is_reachable(ct_name, other):
            tt = self.cheapest_tt(ct_name, other)
            if tt is not None:
                plan = (
                    tt.megabits_per_unit,
                    self.graph.is_downstream(ct_name, other),
                )
        self._probe_plan_cache[key] = plan
        return plan

    def ncp_term(self, ct_name: str, host: str) -> float:
        """The NCP-side term of Eq. (2), cached per (CT, host).

        ``min`` over resources of host capacity over (CT requirement +
        existing committed load).  Valid until the host's loads change,
        at which point :meth:`commit` evicts the host's bucket.
        """
        bucket = self._ncp_term_cache.get(host)
        if bucket is None:
            bucket = self._ncp_term_cache[host] = {}
        else:
            cached = bucket.get(ct_name)
            if cached is not None:
                return cached
        ct = self.graph.ct(ct_name)
        rate = math.inf
        loads = self.ncp_loads.get(host)
        if loads:
            resources: Iterable[str] = set(ct.requirements) | set(loads)
        else:
            resources = ct.requirements
        for resource in resources:
            demand = ct.requirement(resource) + (
                loads.get(resource, 0.0) if loads else 0.0
            )
            if demand <= 0.0:
                continue
            rate = min(rate, self.capacities.capacity(host, resource) / demand)
        bucket[ct_name] = rate
        return rate

    # ------------------------------------------------------------------
    def gamma(self, ct_name: str, host: str) -> float:
        """Eq. (2): the rate bottleneck imposed by placing ``ct_name`` on ``host``.

        The scalar form of :meth:`gamma_over_hosts`: one table cell per
        placed reachable CT.
        """
        rate = self.ncp_term(ct_name, host)
        node_index = self._compiled.node_index
        host_id = node_index[host]
        for other, other_host in self.ct_hosts.items():
            plan = self.probe_plan(ct_name, other)
            if plan is None:
                continue
            megabits, reverse = plan
            other_id = node_index[other_host]
            cell = (host_id, other_id) if reverse else (other_id, host_id)
            rate = min(rate, float(self.width_table(megabits)[cell]))
        return rate

    def gamma_over_hosts(self, ct_name: str, hosts: Sequence[str]) -> FloatArray:
        """Eq. (2) for one CT against *every* candidate host in one sweep.

        (a) The NCP-side term: every resource the CT or the host's existing
        tenants need.  (b) One link-side term per placed reachable CT: the
        width of the best path for the cheapest TT between them, following
        the *data direction* (towards descendants, from ancestors) —
        irrelevant on undirected networks, decisive on directed ones with
        asymmetric bandwidth.  Only the width matters here, so each term
        is one row (column when data flows candidate -> placed) of the
        all-pairs table, min-folded over all hosts at once: the ``+inf``
        diagonal *is* the co-location rule (the TT would be free) and the
        ``-inf`` unreachable sentinel *is* ``UNREACHABLE``.  The table
        cells are the floats Algorithm 1 would settle, so the result is
        bit-identical to probing each (host, placed CT) pair by search.
        """
        rates = self._rates_for(ct_name, hosts)
        host_ids = self._ids_for(hosts)
        node_index = self._compiled.node_index
        for other, other_host in self.ct_hosts.items():
            plan = self.probe_plan(ct_name, other)
            if plan is None:
                continue
            megabits, reverse = plan
            table = self.width_table(megabits)
            other_id = node_index[other_host]
            widths = table[host_ids, other_id] if reverse else table[other_id, host_ids]
            np.minimum(rates, widths, out=rates)
        return rates

    def _ids_for(self, hosts: Sequence[str]) -> IntArray:
        """``hosts`` as compiled node ids (cached for the registered list)."""
        if hosts is self._hosts_ref and self._host_ids is not None:
            return self._host_ids
        node_index = self._compiled.node_index
        return np.array([node_index[host] for host in hosts], dtype=np.int64)

    def _rates_for(self, ct_name: str, hosts: Sequence[str]) -> FloatArray:
        """A fresh copy of ``[ncp_term(ct_name, h) for h in hosts]``.

        The vector is cached per CT and kept current by replaying the
        suffix of the commit log (``_dirty_hosts``) it has not seen —
        a commit changes one host's loads, so only that host's entry can
        differ.  The cache is tied to one host-list object (the list
        :func:`sparcle_assign` builds once); any other list bypasses it.
        """
        if hosts is not self._hosts_ref:
            if self._hosts_ref is not None:
                return np.array([self.ncp_term(ct_name, host) for host in hosts])
            self._hosts_ref = hosts
            self._host_pos = {host: i for i, host in enumerate(hosts)}
            self._host_ids = self._ids_for(hosts)
        cached = self._rates_base.get(ct_name)
        log = self._dirty_hosts
        if cached is None:
            base = np.array([self.ncp_term(ct_name, host) for host in hosts])
        else:
            base, seen = cached
            host_pos = self._host_pos
            for host in log[seen:]:
                pos = host_pos.get(host)
                if pos is not None:
                    base[pos] = self.ncp_term(ct_name, host)
        self._rates_base[ct_name] = (base, len(log))
        return base.copy()

    def compute_only_gamma(self, ct_name: str, host: str) -> float:
        """The NCP-side term of Eq. (2) alone (link state ignored).

        This is the host score used by the paper's GS/GRand baselines,
        which place CTs "not considering the connecting TTs' resource
        requirements" (Sec. V) — they see compute capacity but are blind to
        what their choice does to the links.
        """
        return self.ncp_term(ct_name, host)

    def best_host_compute_only(
        self, ct_name: str, hosts: Sequence[str]
    ) -> tuple[float, str]:
        """``argmax_j`` of the NCP-only score, first-host tiebreak."""
        best: tuple[float, str] | None = None
        for host in hosts:
            score = self.compute_only_gamma(ct_name, host)
            if best is None or score > best[0]:
                best = (score, host)
        assert best is not None
        return best

    # ------------------------------------------------------------------
    def current_rate(self) -> float:
        """Bottleneck rate of the partial placement under the current loads."""
        rate = self._current_rate
        if rate is None:
            capacity = self.capacities.capacity
            rate = math.inf
            for ncp_name, loads in self.ncp_loads.items():
                for resource, load in loads.items():
                    if load > 0.0:
                        rate = min(rate, capacity(ncp_name, resource) / load)
            for link_name, load in self.link_loads.items():
                if load > 0.0:
                    rate = min(rate, capacity(link_name, BANDWIDTH) / load)
            self._current_rate = rate
        return rate

    def _routed_tts(self, ct_name: str, host: str) -> list[tuple[float, str, str]]:
        """The TTs a commit of ``ct_name`` on ``host`` would route, in its order.

        One ``(megabits, src_host, dst_host)`` per placed neighbour on
        another host (``graph.neighbors()`` order, as :meth:`commit`).
        """
        routed = []
        for neighbor in self.graph.neighbors(ct_name):
            other_host = self.ct_hosts.get(neighbor)
            if other_host is None or other_host == host:
                continue
            tt = self.graph.connecting_tt(ct_name, neighbor)
            assert tt is not None
            if tt.src == ct_name:
                routed.append((tt.megabits_per_unit, host, other_host))
            else:
                routed.append((tt.megabits_per_unit, other_host, host))
        return routed

    def partial_rate_bound(self, ct_name: str, host: str) -> tuple[float, bool]:
        """``(bound, exact)``: an upper bound on :meth:`partial_rate_after`.

        Loads only grow and residuals are clamped at zero, so an element's
        rate only falls: the rate after a commit is the current rate,
        min-folded with the host's new NCP-side rates (exactly
        :meth:`ncp_term`) and the rates of the links the new TTs load.  A
        single TT is routed under the current loads, where the narrowest
        loaded link *is* the route's bottleneck — a table cell — so the
        bound is ``exact``.  Later TTs see the earlier ones' load, which
        can only narrow them below their current-table width: a bound.
        """
        rate = min(self.current_rate(), self.ncp_term(ct_name, host))
        routed = self._routed_tts(ct_name, host)
        node_index = self._compiled.node_index
        for megabits, src_host, dst_host in routed:
            width = self.width_table(megabits)[node_index[src_host], node_index[dst_host]]
            rate = min(rate, float(width))
        return rate, len(routed) <= 1

    def partial_rate_after(self, ct_name: str, host: str) -> float:
        """The exact bottleneck rate of the partial placement after a commit.

        Simulates placing ``ct_name`` on ``host`` (including routing the TTs
        to already-placed neighbours in ``graph.neighbors()`` order, as
        :meth:`commit` would) without mutating state, and returns the min
        over touched elements of residual capacity over per-unit load.
        Used only to break exact ties in the Eq.-(2) ranking: gamma scores
        each reachable CT's TT separately, so it cannot see several TTs
        accumulating on one link — the true partial rate can.
        """
        bound, exact = self.partial_rate_bound(ct_name, host)
        return bound if exact else self._simulated_rate(ct_name, host)

    def _simulated_rate(self, ct_name: str, host: str) -> float:
        """:meth:`partial_rate_after` by routing every TT on a copy of the loads."""
        link_loads = dict(self.link_loads)
        touched: list[str] = []
        # Only the first route runs under the committed load state, so
        # only it may share that state's memoized weight vector.
        weights_cache: WeightsCache | None = self._weights_cache
        for megabits, src_host, dst_host in self._routed_tts(ct_name, host):
            route = widest_path(
                self.network, self.capacities, src_host, dst_host,
                megabits, link_loads, weights_cache=weights_cache,
            )
            weights_cache = None
            if route is None:
                return UNREACHABLE
            for link_name in route.links:
                link_loads[link_name] = link_loads.get(link_name, 0.0) + megabits
            touched.extend(route.links)
        rate = min(self.current_rate(), self.ncp_term(ct_name, host))
        for link_name in touched:
            load = link_loads[link_name]
            if load > 0.0:
                rate = min(
                    rate, self.capacities.capacity(link_name, BANDWIDTH) / load
                )
        return rate

    def best_host(self, ct_name: str, hosts: Sequence[str]) -> tuple[float, str]:
        """``argmax_j gamma(i, j)`` with true-rate tiebreak.

        Returns ``(gamma, host)``.  Hosts whose gamma ties the maximum
        (within a relative 1e-9 tolerance) are separated by the exact
        partial rate a commit would produce; remaining ties fall back to
        ``hosts`` order for determinism.  The exact rate is only confirmed
        (by simulation) for hosts whose :meth:`partial_rate_bound` could
        still beat the incumbent.
        """
        gammas = self.gamma_over_hosts(ct_name, hosts)
        best_gamma = float(gammas.max())
        if best_gamma == UNREACHABLE:
            return UNREACHABLE, hosts[0]
        tolerance = 1e-9 * max(1.0, abs(best_gamma)) if math.isfinite(best_gamma) else 0.0
        tied = [hosts[i] for i in np.flatnonzero(gammas >= best_gamma - tolerance)]
        if len(tied) == 1:
            return best_gamma, tied[0]
        # max(tied, key=partial_rate_after) is the max of (exact rate,
        # -index), and (bound, -index) caps each host's key from above:
        # visit hosts by descending cap and stop once a cap falls below
        # the incumbent's key.
        bounds = [self.partial_rate_bound(ct_name, host) for host in tied]
        best: tuple[float, int] | None = None
        for index in sorted(
            range(len(tied)), key=lambda i: (bounds[i][0], -i), reverse=True
        ):
            bound, exact = bounds[index]
            if best is not None and (bound, -index) < best:
                break
            rate = bound if exact else self._simulated_rate(ct_name, tied[index])
            if best is None or (rate, -index) > best:
                best = (rate, -index)
        assert best is not None
        return best_gamma, tied[-best[1]]

    def commit(self, ct_name: str, host: str) -> None:
        """Place ``ct_name`` on ``host`` and route TTs to placed neighbours."""
        if ct_name in self.ct_hosts:
            raise PlacementError(f"CT {ct_name!r} already placed")
        ct = self.graph.ct(ct_name)
        counters.incr("assignment.commits")
        if self._current_rate is not None:
            # The host's NCP-side rates after this commit are exactly the
            # Eq.-(2) term it was scored with; no other NCP changes.
            self._current_rate = min(
                self._current_rate, self.ncp_term(ct_name, host)
            )
        self.ct_hosts[ct_name] = host
        self.order.append(ct_name)
        bucket = self.ncp_loads.setdefault(host, {})
        for resource, amount in ct.requirements.items():
            bucket[resource] = bucket.get(resource, 0.0) + amount
        # The host's committed loads changed: its cached NCP-side terms
        # are stale (every other host's are untouched).
        self._ncp_term_cache.pop(host, None)
        self._dirty_hosts.append(host)
        for neighbor in self.graph.neighbors(ct_name):
            if neighbor not in self.ct_hosts:
                continue
            tt = self.graph.connecting_tt(ct_name, neighbor)
            assert tt is not None  # neighbours are by definition TT-connected
            self._route_tt(tt)

    def _route_tt(self, tt: TransportTask) -> None:
        """Route ``tt`` between its endpoints' hosts (both must be placed)."""
        host_a = self.ct_hosts[tt.src]
        host_b = self.ct_hosts[tt.dst]
        if host_a == host_b:
            self.tt_routes[tt.name] = ()
            return
        route = widest_path(
            self.network, self.capacities, host_a, host_b, tt.megabits_per_unit,
            self.link_loads, weights_cache=self._weights_cache,
        )
        if route is None:
            raise InfeasiblePlacementError(
                f"no network path between {host_a!r} and {host_b!r} for TT {tt.name!r}"
            )
        self.tt_routes[tt.name] = route.links
        for link_name in route.links:
            self.link_loads[link_name] = (
                self.link_loads.get(link_name, 0.0) + tt.megabits_per_unit
            )
        if route.links:
            # The load state changed, so everything memoized against it —
            # weight vectors, width tables, the current rate — is stale.
            self._weights_cache.clear()
            self._width_tables.clear()
            self._current_rate = None

    def finalize(self) -> AssignmentResult:
        """Build the validated :class:`Placement` and its stable rate."""
        placement = Placement(self.graph, self.ct_hosts, self.tt_routes)
        placement.validate(self.network)
        rate = placement.bottleneck_rate(self.capacities)
        return AssignmentResult(placement, rate, tuple(self.order))


def _pin_initial_cts(state: _State) -> None:
    """Algorithm 2 lines 3–5: place pinned CTs (sources/sinks) first.

    TTs whose endpoints are both pinned are routed immediately.  The routing
    order is the TT declaration order, deterministic by construction.
    """
    for ct in state.graph.cts:
        if ct.pinned_host is None:
            continue
        if not state.network.has_ncp(ct.pinned_host):
            raise InfeasiblePlacementError(
                f"CT {ct.name!r} pinned to unknown NCP {ct.pinned_host!r}"
            )
        state.ct_hosts[ct.name] = ct.pinned_host
        state.order.append(ct.name)
        bucket = state.ncp_loads.setdefault(ct.pinned_host, {})
        for resource, amount in ct.requirements.items():
            bucket[resource] = bucket.get(resource, 0.0) + amount
    for tt in state.graph.tts:
        if tt.src in state.ct_hosts and tt.dst in state.ct_hosts:
            state._route_tt(tt)


@timed("assignment.sparcle_assign")
def sparcle_assign(
    graph: TaskGraph,
    network: Network,
    capacities: CapacityView | None = None,
) -> AssignmentResult:
    """Run Algorithm 2 and return one task assignment path.

    ``capacities`` defaults to a fresh view of the raw network; pass a
    residual view to assign on top of existing tenants.  Raises
    :class:`InfeasiblePlacementError` when some CT cannot be connected to
    its already-placed reachable CTs from any host.
    """
    caps = capacities if capacities is not None else CapacityView(network)
    state = _State(graph, network, caps)
    _pin_initial_cts(state)
    unplaced = [ct.name for ct in graph.cts if ct.name not in state.ct_hosts]
    hosts = list(network.ncp_names)
    while unplaced:
        best: tuple[float, str, str] | None = None  # (gamma, ct, host)
        for ct_name in unplaced:
            gamma, host = state.best_host(ct_name, hosts)
            # Highest-rank CT: argmin_i gamma(i, j*_i) — most constrained first.
            if best is None or gamma < best[0]:
                best = (gamma, ct_name, host)
        assert best is not None
        g_star, i_star, j_star = best
        if g_star == UNREACHABLE:
            raise InfeasiblePlacementError(
                f"CT {i_star!r} cannot reach its placed reachable CTs from any NCP"
            )
        state.commit(i_star, j_star)
        unplaced.remove(i_star)
    result = state.finalize()
    tr = tracing.get_tracer()
    if tr.enabled:
        element, resource = bottleneck_of(result.placement, caps)
        tr.event(
            "assignment.path_selected",
            rate=result.rate,
            order=list(result.placement_order),
            ct_hosts=dict(result.placement.ct_hosts),
            bottleneck_element=element,
            bottleneck_resource=resource,
        )
    return result


def bottleneck_of(
    placement: Placement, capacities: CapacityView
) -> tuple[str, str]:
    """The ``(element, resource)`` pair binding a placement's stable rate.

    Ties break toward the lexicographically first element (determinism);
    returns ``("", "")`` for a placement that loads nothing.
    """
    best: tuple[str, str] = ("", "")
    best_rate = math.inf
    for element in sorted(placement.loads()):
        for resource, load in sorted(placement.loads()[element].items()):
            if load <= 0.0:
                continue
            rate = capacities.capacity(element, resource) / load
            if rate < best_rate:
                best_rate = rate
                best = (element, resource)
    return best


def greedy_assign_with_order(
    graph: TaskGraph,
    network: Network,
    order: Sequence[str],
    capacities: CapacityView | None = None,
    *,
    consider_links: bool = False,
) -> AssignmentResult:
    """Place CTs in a *fixed* order with SPARCLE's placement machinery.

    ``order`` lists the non-pinned CTs in placement sequence.  With the
    default ``consider_links=False`` the host score is the NCP-side term of
    Eq. (2) only — matching the paper's GS/GRand baselines, which place CTs
    "not considering the connecting TTs' resource requirements" (Sec. V);
    TTs are still routed with Algorithm 1 once hosts are fixed.  Setting
    ``consider_links=True`` gives a static-order ablation of the full
    gamma (useful for isolating the value of the dynamic ranking alone).
    """
    caps = capacities if capacities is not None else CapacityView(network)
    state = _State(graph, network, caps)
    _pin_initial_cts(state)
    expected = {ct.name for ct in graph.cts if ct.name not in state.ct_hosts}
    if set(order) != expected:
        raise PlacementError(
            f"order must cover exactly the unpinned CTs {sorted(expected)}, got {list(order)}"
        )
    hosts = list(network.ncp_names)
    for ct_name in order:
        if consider_links:
            gamma, host = state.best_host(ct_name, hosts)
        else:
            gamma, host = state.best_host_compute_only(ct_name, hosts)
        if gamma == UNREACHABLE:
            raise InfeasiblePlacementError(
                f"CT {ct_name!r} cannot reach its placed reachable CTs from any NCP"
            )
        state.commit(ct_name, host)
    return state.finalize()


def fixed_placement(
    graph: TaskGraph,
    network: Network,
    ct_hosts: dict[str, str],
    capacities: CapacityView | None = None,
    *,
    router: str = "widest",
) -> AssignmentResult:
    """Route TTs for an externally chosen CT->NCP map and compute its rate.

    Baselines that only decide CT hosts (Random, HEFT, T-Storm, VNE, Cloud)
    use this to obtain a full placement.  ``router`` selects Algorithm 1
    (``"widest"``, load-aware) or plain minimum-hop (``"hops"``).
    """
    caps = capacities if capacities is not None else CapacityView(network)
    state = _State(graph, network, caps)
    missing = [ct.name for ct in graph.cts if ct.name not in ct_hosts]
    if missing:
        raise PlacementError(f"fixed placement missing hosts for CTs {missing}")
    for ct in graph.cts:
        host = ct_hosts[ct.name]
        if ct.pinned_host is not None and host != ct.pinned_host:
            raise PlacementError(
                f"CT {ct.name!r} pinned to {ct.pinned_host!r} but mapped to {host!r}"
            )
        if not network.has_ncp(host):
            raise InfeasiblePlacementError(f"CT {ct.name!r} mapped to unknown NCP {host!r}")
        state.ct_hosts[ct.name] = host
        state.order.append(ct.name)
        bucket = state.ncp_loads.setdefault(host, {})
        for resource, amount in ct.requirements.items():
            bucket[resource] = bucket.get(resource, 0.0) + amount
    for tt in graph.tts:
        src_host, dst_host = state.ct_hosts[tt.src], state.ct_hosts[tt.dst]
        if router == "widest":
            state._route_tt(tt)
        elif router == "hops":
            from repro.core.routing import hop_shortest_path

            if src_host == dst_host:
                state.tt_routes[tt.name] = ()
                continue
            route = hop_shortest_path(network, src_host, dst_host)
            if route is None:
                raise InfeasiblePlacementError(
                    f"no network path between {src_host!r} and {dst_host!r} "
                    f"for TT {tt.name!r}"
                )
            state.tt_routes[tt.name] = route.links
            for link_name in route.links:
                state.link_loads[link_name] = (
                    state.link_loads.get(link_name, 0.0) + tt.megabits_per_unit
                )
        else:
            raise ValueError(f"unknown router {router!r}")
    return state.finalize()


def feasible_hosts(graph: TaskGraph, network: Network) -> dict[str, list[str]]:
    """For each CT, the NCPs that could host it (pin-respecting).

    A host is listed when it is the pinned host, or when the CT is unpinned;
    capacity shortfalls are *not* filtered here (a zero-rate placement is
    still a placement — admission control rejects it later).
    """
    out: dict[str, list[str]] = {}
    for ct in graph.cts:
        if ct.pinned_host is not None:
            out[ct.name] = [ct.pinned_host]
        else:
            out[ct.name] = list(network.ncp_names)
    return out


def iter_orders_by_requirement(graph: TaskGraph, resources: Iterable[str]) -> list[str]:
    """Unpinned CTs ordered by descending total requirement (GS order)."""
    resources = list(resources)
    unpinned = [ct for ct in graph.cts if ct.pinned_host is None]

    def total(ct: ComputationTask) -> float:
        return sum(ct.requirement(r) for r in resources if r != BANDWIDTH)

    return [ct.name for ct in sorted(unpinned, key=lambda c: (-total(c), c.name))]
