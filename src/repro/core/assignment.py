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
    The ranking reads gamma alone, so ties among ``i*``'s best hosts are
    broken (by the exact partial rate a commit would produce) for ``i*``
    only.
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
from typing import NamedTuple

import numpy as np

from repro.core.arrays import (
    CompiledNetwork,
    FloatArray,
    all_pairs_widths,
    compile_network,
)
from repro.core.network import Network
from repro.core.placement import CapacityView, Placement
from repro.core.routing import (
    WeightsCache,
    _point_search,
    cached_link_weights,
    widest_path,
)
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


class _NcpInputs(NamedTuple):
    """What the (CTs × NCPs) NCP-term matrix is computed from."""

    rows: dict[str, int]  # CT name -> matrix row (``graph.cts`` order)
    columns: dict[str, int]  # resource -> column of both matrices below
    required: FloatArray  # CTs × resources requirements
    caps: FloatArray  # NCPs × resources capacities (compiled node order)


@dataclass
class _State:
    """Mutable working state of one assignment run.

    Besides the placement being built, it holds what the γ ranking reads,
    indexed by compiled node id: the all-pairs width tables per TT size,
    the (CTs × NCPs) NCP-term matrix, and per unplaced CT its probe
    groups.  Each is refreshed exactly where its inputs change: a route
    that loads links drops the tables, and :meth:`_place` recomputes one
    matrix column and extends the probe groups.
    """

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
    # Every Eq.-(2) link term and every tie-break bound is a cell read,
    # and a commit route whose table is here searches only paths at
    # least that wide; cleared with `_weights_cache` whenever a route
    # loads links.
    _width_tables: dict[float, FloatArray] = field(default_factory=dict)

    # Exact bottleneck rate of the partial placement under the current
    # loads (the tie-break's common term).  `commit` folds the committed
    # host's new NCP-side rate in; a route that loads links drops it.
    _current_rate: float | None = None

    # NCP-side Eq.-(2) term of every (CT, NCP): rows in ``graph.cts``
    # order, columns compiled node ids.  Built on first read; a host's
    # column changes only when its committed loads do, so `_place`
    # recomputes that one column.
    _ncp_terms: FloatArray | None = None

    # Per unplaced CT, its link probes grouped by ``(megabits, reverse)``
    # — the cheapest TT's size towards a placed reachable CT and whether
    # data flows candidate -> placed — to the node ids of those placed
    # CTs' hosts.  Built on the CT's first γ sweep; `_place` appends.
    _probe_groups: dict[str, dict[tuple[float, bool], list[int]]] = field(
        default_factory=dict
    )

    # Shared Eq.-(3) weight arrays for the *current* ``link_loads`` state
    # (see routing.WeightsCache); cleared whenever a commit loads links.
    _weights_cache: WeightsCache = field(default_factory=dict)

    # ------------------------------------------------------------------
    @cached_property
    def _compiled(self) -> CompiledNetwork:
        return compile_network(self.network)

    @cached_property
    def _ncp_inputs(self) -> _NcpInputs:
        cts = self.graph.cts
        resources = sorted(self.graph.resources())
        nodes = self._compiled.node_names
        capacity = self.capacities.capacity
        required = np.array(
            [[ct.requirement(r) for r in resources] for ct in cts], dtype=np.float64
        ).reshape(len(cts), len(resources))
        caps = np.array(
            [[capacity(host, r) for r in resources] for host in nodes], dtype=np.float64
        ).reshape(len(nodes), len(resources))
        return _NcpInputs(
            rows={ct.name: i for i, ct in enumerate(cts)},
            columns={r: k for k, r in enumerate(resources)},
            required=required,
            caps=caps,
        )

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

    def _ncp_term_matrix(self) -> FloatArray:
        if self._ncp_terms is None:
            inputs = self._ncp_inputs
            # Every column as if its host were empty, then the loaded ones.
            terms = _min_ratio(inputs.caps, inputs.required[:, None, :])
            for host in self.ncp_loads:
                self._refresh_ncp_column(terms, host)
            self._ncp_terms = terms
        return self._ncp_terms

    def _refresh_ncp_column(self, terms: FloatArray, host: str) -> None:
        """Recompute ``host``'s column of ``terms`` from its committed loads."""
        inputs = self._ncp_inputs
        column = self._compiled.node_index[host]
        loads = np.zeros(len(inputs.columns))
        for resource, load in self.ncp_loads[host].items():
            loads[inputs.columns[resource]] = load
        terms[:, column] = _min_ratio(inputs.caps[column], inputs.required + loads)

    def ncp_term(self, ct_name: str, host: str) -> float:
        """The NCP-side term of Eq. (2): one cell of the NCP-term matrix.

        ``min`` over resources of host capacity over (CT requirement +
        existing committed load), skipping resources with no demand.
        """
        row = self._ncp_inputs.rows[ct_name]
        return float(self._ncp_term_matrix()[row, self._compiled.node_index[host]])

    def _groups_for(self, ct_name: str) -> dict[tuple[float, bool], list[int]]:
        groups = self._probe_groups.get(ct_name)
        if groups is None:
            groups = self._probe_groups[ct_name] = {}
            for other, other_host in self.ct_hosts.items():
                self._add_probe(groups, ct_name, other, other_host)
        return groups

    def _add_probe(
        self,
        groups: dict[tuple[float, bool], list[int]],
        ct_name: str,
        other: str,
        other_host: str,
    ) -> None:
        """File placed ``other``'s host under ``ct_name``'s probe group, if any.

        No probe when ``other`` is unreachable from ``ct_name`` in the task
        graph; otherwise the cheapest TT of ``G(ct_name, other)`` and the
        data direction pick the group.
        """
        tt = self.graph.cheapest_tt_between(ct_name, other)
        if tt is not None:
            key = (tt.megabits_per_unit, self.graph.is_downstream(ct_name, other))
            groups.setdefault(key, []).append(self._compiled.node_index[other_host])

    # ------------------------------------------------------------------
    def gamma_row(self, ct_name: str) -> FloatArray:
        """Eq. (2) for one CT against every NCP, in compiled node order.

        (a) The NCP-side term: the CT's row of the NCP-term matrix.  (b)
        One link-side term per placed reachable CT: the width of the best
        path for the cheapest TT between them, following the *data
        direction* (towards descendants, from ancestors) — irrelevant on
        undirected networks, decisive on directed ones with asymmetric
        bandwidth.  Only the width matters here, so the placed CTs of one
        probe group are one ``min`` over rows of the all-pairs table
        (over columns when data flows candidate -> placed): the ``+inf``
        diagonal *is* the co-location rule (the TT would be free) and the
        ``-inf`` unreachable sentinel *is* ``UNREACHABLE``.  The cells are
        the floats Algorithm 1 would settle and ``min`` is exact, so the
        result is bit-identical to probing each (host, placed CT) pair by
        search.
        """
        rates: FloatArray = self._ncp_term_matrix()[self._ncp_inputs.rows[ct_name]].copy()
        for (megabits, reverse), ids in self._groups_for(ct_name).items():
            table = self.width_table(megabits)
            if len(ids) == 1:
                widths = table[:, ids[0]] if reverse else table[ids[0]]
            else:
                widths = table[:, ids].min(axis=1) if reverse else table[ids].min(axis=0)
            np.minimum(rates, widths, out=rates)
        return rates

    def compute_only_gamma(self, ct_name: str, host: str) -> float:
        """The NCP-side term of Eq. (2) alone (link state ignored).

        This is the host score used by the paper's GS/GRand baselines,
        which place CTs "not considering the connecting TTs' resource
        requirements" (Sec. V) — they see compute capacity but are blind to
        what their choice does to the links.
        """
        return self.ncp_term(ct_name, host)

    def best_host_compute_only(self, ct_name: str) -> tuple[float, str]:
        """``argmax_j`` of the NCP-only score, first-NCP tiebreak."""
        scores = self._ncp_term_matrix()[self._ncp_inputs.rows[ct_name]]
        best = int(np.argmax(scores))
        return float(scores[best]), self._compiled.node_names[best]

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
        """``argmax_j gamma(i, j)`` over ``hosts`` with true-rate tiebreak.

        ``hosts`` is the order :meth:`pick_host` falls back to on an exact
        tie; the assignment loops pass the compiled node order.
        """
        node_index = self._compiled.node_index
        gammas = self.gamma_row(ct_name)[[node_index[host] for host in hosts]]
        return self.pick_host(ct_name, hosts, gammas)

    def pick_host(
        self, ct_name: str, hosts: Sequence[str], gammas: FloatArray
    ) -> tuple[float, str]:
        """``(max gamma, host)`` for ``ct_name`` given its γ over ``hosts``.

        Hosts whose gamma ties the maximum (within a relative 1e-9
        tolerance) are separated by the exact partial rate a commit would
        produce; remaining ties fall back to ``hosts`` order for
        determinism.  The exact rate is only confirmed (by simulation) for
        hosts whose :meth:`partial_rate_bound` could still beat the
        incumbent.
        """
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
        counters.incr("assignment.commits")
        if self._current_rate is not None:
            # The host's NCP-side rates after this commit are exactly the
            # Eq.-(2) term it was scored with; no other NCP changes.
            self._current_rate = min(
                self._current_rate, self.ncp_term(ct_name, host)
            )
        self._place(ct_name, host)
        for neighbor in self.graph.neighbors(ct_name):
            if neighbor not in self.ct_hosts:
                continue
            tt = self.graph.connecting_tt(ct_name, neighbor)
            assert tt is not None  # neighbours are by definition TT-connected
            self._route_tt(tt)

    def _place(self, ct_name: str, host: str) -> None:
        """Record ``ct_name`` on ``host``: its hosts/order entry and NCP loads.

        Only ``host``'s loads change, so only its NCP-term column is
        recomputed; every unplaced CT with probe groups gains the probe
        towards ``ct_name``.
        """
        self.ct_hosts[ct_name] = host
        self.order.append(ct_name)
        bucket = self.ncp_loads.setdefault(host, {})
        for resource, amount in self.graph.ct(ct_name).requirements.items():
            bucket[resource] = bucket.get(resource, 0.0) + amount
        if self._ncp_terms is not None:
            self._refresh_ncp_column(self._ncp_terms, host)
        self._probe_groups.pop(ct_name, None)
        for other, groups in self._probe_groups.items():
            self._add_probe(groups, other, ct_name, host)

    def _route_tt(self, tt: TransportTask) -> None:
        """Route ``tt`` between its endpoints' hosts (both must be placed).

        When the current width table for the TT's size is built, its cell
        is the route's width, and the search keeps only candidates at
        least that wide (``routing._point_search``).
        """
        host_a = self.ct_hosts[tt.src]
        host_b = self.ct_hosts[tt.dst]
        if host_a == host_b:
            self.tt_routes[tt.name] = ()
            return
        megabits = tt.megabits_per_unit
        table = self._width_tables.get(megabits)
        if table is None:
            route = widest_path(
                self.network, self.capacities, host_a, host_b, megabits,
                self.link_loads, weights_cache=self._weights_cache,
            )
        else:
            node_index = self._compiled.node_index
            route = _point_search(
                self.network, self.capacities, host_a, host_b, megabits,
                self.link_loads, self._weights_cache,
                float(table[node_index[host_a], node_index[host_b]]),
            )
        if route is None:
            raise InfeasiblePlacementError(
                f"no network path between {host_a!r} and {host_b!r} for TT {tt.name!r}"
            )
        self.tt_routes[tt.name] = route.links
        for link_name in route.links:
            self.link_loads[link_name] = (
                self.link_loads.get(link_name, 0.0) + megabits
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


def _min_ratio(caps: FloatArray, demand: FloatArray) -> FloatArray:
    """``min`` over the last axis of ``caps / demand``, skipping ``demand <= 0``.

    The same IEEE divisions and exact ``min`` as a scalar loop over
    resources, so each entry is bit-identical to it (``+inf`` when no
    resource has demand).  The operands broadcast.
    """
    ratio = np.full(np.broadcast_shapes(caps.shape, demand.shape), math.inf)
    with np.errstate(over="ignore"):
        np.divide(caps, demand, out=ratio, where=demand > 0.0)
    result: FloatArray = ratio.min(axis=-1, initial=math.inf)
    return result


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
        state._place(ct.name, ct.pinned_host)
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
    hosts = state._compiled.node_names  # the order of every gamma row
    while unplaced:
        # Highest-rank CT: argmin_i max_j gamma(i, j) — most constrained
        # first.  The choice reads only gamma, so the host tie-break runs
        # for the chosen CT alone.
        best: tuple[float, str, FloatArray] | None = None  # (gamma, ct, row)
        for ct_name in unplaced:
            gammas = state.gamma_row(ct_name)
            gamma = float(gammas.max())
            if best is None or gamma < best[0]:
                best = (gamma, ct_name, gammas)
        assert best is not None
        g_star, i_star, gammas = best
        if g_star == UNREACHABLE:
            raise InfeasiblePlacementError(
                f"CT {i_star!r} cannot reach its placed reachable CTs from any NCP"
            )
        state.commit(i_star, state.pick_host(i_star, hosts, gammas)[1])
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
    hosts = state._compiled.node_names
    for ct_name in order:
        if consider_links:
            gamma, host = state.best_host(ct_name, hosts)
        else:
            gamma, host = state.best_host_compute_only(ct_name)
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
        state._place(ct.name, host)
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
