"""Straight-line reference implementation of Algorithm 2 (pre-optimization).

This module preserves the original, unoptimized assignment hot path: one
point-to-point Algorithm-1 Dijkstra per ``(unplaced CT, candidate host,
placed CT)`` probe, a per-round route memo that is wholesale-cleared on
every commit, and per-call load-vector recomputation.  Its point searches
run on the dict oracle of ``tests/routing_oracles.py``, so it shares no
Algorithm-1 code with ``src/``.

It exists for two reasons:

* the **golden equivalence suite** (``tests/core/test_assignment_
  equivalence.py``) asserts that the optimized ``sparcle_assign`` is
  decision-identical — same hosts, same routes, same rates, same placement
  order — to this reference on seeded random scenarios;
* the **benchmark runner** (``benchmarks/export_bench.py``) times it as the
  pre-change baseline recorded in ``BENCH_assignment.json``.

Keep this file boring: no caching cleverness, no batching.  It should only
change if the *semantics* of Algorithm 2 change, in which case the golden
suite is the alarm bell.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.assignment import UNREACHABLE, AssignmentResult
from repro.core.network import Network
from repro.core.placement import CapacityView, Placement
from repro.core.routing import RouteResult
from repro.core.taskgraph import BANDWIDTH, TaskGraph, TransportTask
from repro.exceptions import InfeasiblePlacementError, PlacementError
from tests.routing_oracles import widest_path_dict


@dataclass
class _ReferenceState:
    """Mutable working state of one reference assignment run."""

    graph: TaskGraph
    network: Network
    capacities: CapacityView
    ct_hosts: dict[str, str] = field(default_factory=dict)
    tt_routes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    ncp_loads: dict[str, dict[str, float]] = field(default_factory=dict)
    link_loads: dict[str, float] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    # Per-round widest-path memo; invalidated whenever loads change.
    _route_cache: dict[tuple[str, str, float], RouteResult | None] = field(
        default_factory=dict
    )

    # ------------------------------------------------------------------
    def placed(self) -> set[str]:
        return set(self.ct_hosts)

    def best_route(self, j: str, j_prime: str, megabits: float) -> RouteResult | None:
        """Memoized Algorithm-1 call for the current load state."""
        key = (j, j_prime, megabits)
        if key not in self._route_cache:
            self._route_cache[key] = widest_path_dict(
                self.network, self.capacities, j, j_prime, megabits, self.link_loads
            )
        return self._route_cache[key]

    def cheapest_tt(self, a: str, b: str) -> TransportTask | None:
        """Algorithm 2 line 12: argmin of ``a^(b)`` over ``G(a, b)``."""
        candidates = self.graph.tts_between(a, b)
        if not candidates:
            return None
        return min(candidates, key=lambda tt: (tt.megabits_per_unit, tt.name))

    # ------------------------------------------------------------------
    def ncp_term(self, ct_name: str, host: str) -> float:
        """The NCP-side term of Eq. (2), one resource at a time."""
        ct = self.graph.ct(ct_name)
        rate = math.inf
        loads = self.ncp_loads.get(host, {})
        resources = set(ct.requirements) | set(loads)
        for resource in resources:
            demand = ct.requirement(resource) + loads.get(resource, 0.0)
            if demand <= 0.0:
                continue
            rate = min(rate, self.capacities.capacity(host, resource) / demand)
        return rate

    def gamma(self, ct_name: str, host: str) -> float:
        """Eq. (2): the rate bottleneck imposed by placing ``ct_name`` on ``host``."""
        rate = self.ncp_term(ct_name, host)
        for other in sorted(self.placed()):
            if other == ct_name or not self.graph.is_reachable(ct_name, other):
                continue
            other_host = self.ct_hosts[other]
            if other_host == host:
                continue  # co-located: the TT would be free
            tt = self.cheapest_tt(ct_name, other)
            if tt is None:
                continue
            if self.graph.is_downstream(ct_name, other):
                route = self.best_route(host, other_host, tt.megabits_per_unit)
            else:
                route = self.best_route(other_host, host, tt.megabits_per_unit)
            if route is None:
                return UNREACHABLE
            rate = min(rate, route.bottleneck)
        return rate

    def partial_rate_after(self, ct_name: str, host: str) -> float:
        """The exact bottleneck rate of the partial placement after a commit."""
        ct = self.graph.ct(ct_name)
        ncp_loads = {n: dict(b) for n, b in self.ncp_loads.items()}
        link_loads = dict(self.link_loads)
        bucket = ncp_loads.setdefault(host, {})
        for resource, amount in ct.requirements.items():
            bucket[resource] = bucket.get(resource, 0.0) + amount
        for neighbor in self.graph.neighbors(ct_name):
            if neighbor not in self.ct_hosts:
                continue
            other_host = self.ct_hosts[neighbor]
            if other_host == host:
                continue
            tt = self.graph.connecting_tt(ct_name, neighbor)
            assert tt is not None
            src_host = host if tt.src == ct_name else other_host
            dst_host = other_host if tt.src == ct_name else host
            route = widest_path_dict(
                self.network, self.capacities, src_host, dst_host,
                tt.megabits_per_unit, link_loads,
            )
            if route is None:
                return UNREACHABLE
            for link_name in route.links:
                link_loads[link_name] = (
                    link_loads.get(link_name, 0.0) + tt.megabits_per_unit
                )
        rate = math.inf
        for ncp_name, loads in ncp_loads.items():
            for resource, load in loads.items():
                if load > 0.0:
                    rate = min(rate, self.capacities.capacity(ncp_name, resource) / load)
        for link_name, load in link_loads.items():
            if load > 0.0:
                rate = min(rate, self.capacities.capacity(link_name, BANDWIDTH) / load)
        return rate

    def best_host(self, ct_name: str, hosts: Sequence[str]) -> tuple[float, str]:
        """``argmax_j gamma(i, j)`` with true-rate tiebreak."""
        gammas = [(self.gamma(ct_name, host), host) for host in hosts]
        best_gamma = max(g for g, _ in gammas)
        if best_gamma == UNREACHABLE:
            return UNREACHABLE, gammas[0][1]
        tolerance = 1e-9 * max(1.0, abs(best_gamma)) if math.isfinite(best_gamma) else 0.0
        tied = [h for g, h in gammas if g >= best_gamma - tolerance]
        if len(tied) == 1:
            return best_gamma, tied[0]
        winner = max(tied, key=lambda h: self.partial_rate_after(ct_name, h))
        return best_gamma, winner

    def commit(self, ct_name: str, host: str) -> None:
        """Place ``ct_name`` on ``host`` and route TTs to placed neighbours."""
        if ct_name in self.ct_hosts:
            raise PlacementError(f"CT {ct_name!r} already placed")
        ct = self.graph.ct(ct_name)
        self.ct_hosts[ct_name] = host
        self.order.append(ct_name)
        bucket = self.ncp_loads.setdefault(host, {})
        for resource, amount in ct.requirements.items():
            bucket[resource] = bucket.get(resource, 0.0) + amount
        for neighbor in self.graph.neighbors(ct_name):
            if neighbor not in self.ct_hosts:
                continue
            tt = self.graph.connecting_tt(ct_name, neighbor)
            assert tt is not None  # neighbours are by definition TT-connected
            self._route_tt(tt)
        self._route_cache.clear()

    def _route_tt(self, tt: TransportTask) -> None:
        """Route ``tt`` between its endpoints' hosts (both must be placed)."""
        host_a = self.ct_hosts[tt.src]
        host_b = self.ct_hosts[tt.dst]
        if host_a == host_b:
            self.tt_routes[tt.name] = ()
            return
        route = widest_path_dict(
            self.network, self.capacities, host_a, host_b, tt.megabits_per_unit, self.link_loads
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

    def finalize(self) -> AssignmentResult:
        """Build the validated :class:`Placement` and its stable rate."""
        placement = Placement(self.graph, self.ct_hosts, self.tt_routes)
        placement.validate(self.network)
        rate = placement.bottleneck_rate(self.capacities)
        return AssignmentResult(placement, rate, tuple(self.order))


def _pin_initial_cts(state: _ReferenceState) -> None:
    """Algorithm 2 lines 3-5: place pinned CTs (sources/sinks) first."""
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
    state._route_cache.clear()


def reference_assign(
    graph: TaskGraph,
    network: Network,
    capacities: CapacityView | None = None,
) -> AssignmentResult:
    """Run the unoptimized Algorithm 2 and return one task assignment path.

    Drop-in signature-compatible with :func:`repro.core.assignment.
    sparcle_assign`; see the module docstring for why both exist.
    """
    caps = capacities if capacities is not None else CapacityView(network)
    state = _ReferenceState(graph, network, caps)
    _pin_initial_cts(state)
    unplaced = [ct.name for ct in graph.cts if ct.name not in state.ct_hosts]
    hosts = list(network.ncp_names)
    while unplaced:
        best: tuple[float, str, str] | None = None  # (gamma, ct, host)
        for ct_name in unplaced:
            gamma, host = state.best_host(ct_name, hosts)
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
    return state.finalize()
