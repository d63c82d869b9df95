"""Task assignment paths, load accounting, and stable-rate computation.

A *placement* (one "task assignment path" in the paper's terminology) maps
every CT of an application to an NCP and every TT to the sequence of links
its data crosses.  Sec. IV-A derives the application's stable processing
rate from a placement: modelling the pipeline as a queueing network, the
input rate must not exceed the service rate of the slowest element,

    x  <=  min over elements j, resources r of  C_j^(r) / R_j^(r),

where ``R_j^(r)`` is the per-data-unit load that the placement puts on
element ``j`` for resource ``r`` (the sum of ``a_i^(r)`` over tasks hosted
on ``j``).  Neighbouring CTs placed on the *same* NCP exchange data locally,
so their connecting TT occupies no link and contributes no load — this is
why concentrating chatty CTs can win when bandwidth is scarce.

:class:`CapacityView` holds *residual* capacities.  The network itself is
immutable; every consumer of capacity (multiple paths of one application,
multiple applications, Theorem-3 predictions) works through a view.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from repro.core.network import Network, ResidualSnapshot
from repro.core.taskgraph import BANDWIDTH, TaskGraph
from repro.exceptions import PlacementError

#: Per-element, per-resource load vector: ``{element: {resource: per-unit load}}``.
Loads = dict[str, dict[str, float]]


@dataclass(frozen=True)
class Placement:
    """One task assignment path: CT -> NCP and TT -> link sequence.

    ``tt_routes`` maps each TT name to the (ordered) tuple of link names the
    TT is placed on; an empty tuple means the TT's endpoints are co-located
    and the transfer is NCP-internal (free).
    """

    graph: TaskGraph
    ct_hosts: Mapping[str, str]
    tt_routes: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ct_hosts", dict(self.ct_hosts))
        object.__setattr__(
            self, "tt_routes", {k: tuple(v) for k, v in self.tt_routes.items()}
        )
        # Memoized load vector: a Placement is deeply immutable, but loads()
        # is called from every consume/starved/bottleneck/rebuild path.
        object.__setattr__(self, "_loads_cache", None)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def host(self, ct_name: str) -> str:
        """The NCP hosting ``ct_name``."""
        try:
            return self.ct_hosts[ct_name]
        except KeyError:
            raise PlacementError(f"CT {ct_name!r} is not placed") from None

    def route(self, tt_name: str) -> tuple[str, ...]:
        """The link names hosting ``tt_name`` (empty if co-located)."""
        try:
            return self.tt_routes[tt_name]
        except KeyError:
            raise PlacementError(f"TT {tt_name!r} is not placed") from None

    def used_ncps(self) -> frozenset[str]:
        """NCPs hosting at least one CT."""
        return frozenset(self.ct_hosts.values())

    def used_links(self) -> frozenset[str]:
        """Links hosting at least one TT."""
        return frozenset(l for route in self.tt_routes.values() for l in route)

    def used_elements(self) -> frozenset[str]:
        """All network elements this path depends on (for availability)."""
        return self.used_ncps() | self.used_links()

    # ------------------------------------------------------------------
    # Load accounting and rates
    # ------------------------------------------------------------------
    def loads(self) -> Loads:
        """Per-unit load ``R`` of this path on every touched element.

        NCP entries accumulate every CT resource; link entries accumulate
        TT megabits under the :data:`~repro.core.taskgraph.BANDWIDTH` key.

        The result is computed once and memoized on the (immutable)
        instance; callers must treat the returned mapping as read-only.
        """
        cached: Loads | None = self._loads_cache  # type: ignore[attr-defined]
        if cached is not None:
            return cached
        loads: Loads = {}
        for ct in self.graph.cts:
            host = self.host(ct.name)
            bucket = loads.setdefault(host, {})
            for resource, amount in ct.requirements.items():
                bucket[resource] = bucket.get(resource, 0.0) + amount
        for tt in self.graph.tts:
            for link_name in self.route(tt.name):
                bucket = loads.setdefault(link_name, {})
                bucket[BANDWIDTH] = bucket.get(BANDWIDTH, 0.0) + tt.megabits_per_unit
        object.__setattr__(self, "_loads_cache", loads)
        return loads

    def bottleneck_rate(self, capacities: "CapacityView") -> float:
        """The maximum stable processing rate of this path.

        Returns ``inf`` for a placement that loads nothing (all-zero
        requirements) and ``0.0`` when some element lacks a required
        resource entirely.
        """
        rate = math.inf
        for element, bucket in self.loads().items():
            for resource, load in bucket.items():
                if load <= 0.0:
                    continue
                rate = min(rate, capacities.capacity(element, resource) / load)
        return rate

    def bottleneck_elements(self, capacities: "CapacityView") -> list[str]:
        """Elements whose capacity binds the rate (within a 1e-9 tolerance)."""
        rate = self.bottleneck_rate(capacities)
        if math.isinf(rate):
            return []
        out = []
        for element, bucket in self.loads().items():
            for resource, load in bucket.items():
                if load <= 0.0:
                    continue
                if capacities.capacity(element, resource) / load <= rate * (1 + 1e-9):
                    out.append(element)
                    break
        return sorted(out)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, network: Network) -> None:
        """Raise :class:`PlacementError` unless this placement is coherent.

        Checks: every CT placed on an existing NCP, pinned CTs respected,
        every TT routed, each TT route is a connected path in the network
        whose endpoints are the hosts of the TT's endpoints (and empty iff
        the hosts coincide).
        """
        for ct in self.graph.cts:
            host = self.host(ct.name)
            if not network.has_ncp(host):
                raise PlacementError(f"CT {ct.name!r} placed on unknown NCP {host!r}")
            if ct.pinned_host is not None and host != ct.pinned_host:
                raise PlacementError(
                    f"CT {ct.name!r} is pinned to {ct.pinned_host!r} but placed on {host!r}"
                )
        for tt in self.graph.tts:
            route = self.route(tt.name)
            src_host = self.host(tt.src)
            dst_host = self.host(tt.dst)
            if src_host == dst_host:
                if route:
                    raise PlacementError(
                        f"TT {tt.name!r} endpoints are co-located on {src_host!r} "
                        f"but it is routed over {route}"
                    )
                continue
            if not route:
                raise PlacementError(
                    f"TT {tt.name!r} endpoints are on {src_host!r} and {dst_host!r} "
                    "but it has an empty route"
                )
            current = src_host
            seen_links: set[str] = set()
            for link_name in route:
                link = network.link(link_name)
                if link_name in seen_links:
                    raise PlacementError(f"TT {tt.name!r} route repeats link {link_name!r}")
                seen_links.add(link_name)
                if current not in link.endpoints():
                    raise PlacementError(
                        f"TT {tt.name!r} route is not contiguous at link {link_name!r}"
                    )
                if network.directed and link.a != current:
                    raise PlacementError(
                        f"TT {tt.name!r} traverses link {link_name!r} against "
                        "its direction"
                    )
                current = link.other(current)
            if current != dst_host:
                raise PlacementError(
                    f"TT {tt.name!r} route ends at {current!r}, expected {dst_host!r}"
                )

    def __repr__(self) -> str:
        routes = {name: list(route) for name, route in self.tt_routes.items()}
        return (
            f"Placement({self.graph.name!r}, hosts={dict(self.ct_hosts)}, "
            f"routes={routes})"
        )


def merge_loads(load_list: Iterable[Loads]) -> Loads:
    """Element-wise sum of several per-unit load vectors."""
    total: Loads = {}
    for loads in load_list:
        for element, bucket in loads.items():
            out = total.setdefault(element, {})
            for resource, amount in bucket.items():
                out[resource] = out.get(resource, 0.0) + amount
    return total


class CapacityView:
    """Residual (or predicted) capacities over a network.

    A fresh view exposes the network's raw capacities.  Scheduling code then
    either *consumes* capacity (``consume``: an accepted path at a committed
    rate removes ``rate * load`` from each element) or *scales* it
    (``scaled``: the Theorem-3 priority prediction of Eq. (6) gives a later
    BE application only its fair share of contested elements).
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        # (element, resource) -> residual, only where it differs from (or
        # was written over) the raw capacity: one dict probe on the
        # capacity() hot path and one flat dict to copy (the network
        # itself memoizes base capacities).
        self._flat: dict[tuple[str, str], float] = {}
        # Monotonic mutation counter: every residual write bumps it, so
        # derived caches (e.g. the repro.core.arrays residual-bandwidth
        # array) can key on (view, version) instead of re-reading every
        # entry per probe.  Population during construction stays at 0 —
        # the caches key on the instance, which did not exist yet.
        self._version: int = 0

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter: increments on every residual write.

        Lets derived caches (residual arrays, link-weight vectors) detect
        staleness with one integer compare instead of rereading overrides.
        """
        return self._version

    def iter_overrides(self) -> Iterator[tuple[str, str, float]]:
        """Iterate ``(element, resource, residual)`` overrides, unordered.

        Only the entries that differ from the raw network capacities are
        yielded — the same set :meth:`freeze` snapshots (unsorted here:
        this is the O(overrides) hot path for array compilation).
        """
        for (element, resource), value in self._flat.items():
            yield element, resource, value

    def capacity(self, element_name: str, resource: str) -> float:
        """Residual capacity of ``resource`` on ``element_name``."""
        value = self._flat.get((element_name, resource))
        if value is not None:
            return value
        return self.network.capacity(element_name, resource)

    def _set(self, element_name: str, resource: str, value: float) -> None:
        self._flat[(element_name, resource)] = max(0.0, value)
        self._version += 1

    def consume(self, loads: Loads, rate: float, *, clamp: bool = False) -> None:
        """Subtract ``rate * load`` from every element the loads touch.

        Raises if the consumption would drive any residual below a small
        negative tolerance (callers must only commit feasible rates);
        tiny numerical overshoot is clamped to zero.  ``clamp=True``
        suppresses the check and floors residuals at zero — for advisory
        bookkeeping views whose entries were not admitted against each
        other (e.g. the scheduler's FCFS ablation ledger).
        """
        if rate < 0:
            raise PlacementError(f"cannot consume at negative rate {rate}")
        for element, bucket in loads.items():
            for resource, load in bucket.items():
                if load <= 0.0:
                    continue
                residual = self.capacity(element, resource) - rate * load
                if not clamp and residual < -1e-6 * max(
                    1.0, self.network.capacity(element, resource)
                ):
                    raise PlacementError(
                        f"consuming {rate} units/s of {resource!r} on {element!r} "
                        f"exceeds residual capacity by {-residual}"
                    )
                self._set(element, resource, residual)

    def release(self, loads: Loads, rate: float) -> None:
        """Return previously consumed capacity (inverse of :meth:`consume`).

        Residuals are capped at the raw network capacity so that releasing
        more than was consumed cannot mint capacity.
        """
        if rate < 0:
            raise PlacementError(f"cannot release at negative rate {rate}")
        for element, bucket in loads.items():
            for resource, load in bucket.items():
                if load <= 0.0:
                    continue
                raw = self.network.capacity(element, resource)
                self._set(element, resource, min(raw, self.capacity(element, resource) + rate * load))

    def scaled(self, factors: Mapping[str, float]) -> "CapacityView":
        """A copy with per-element multiplicative factors applied.

        ``factors`` maps element names to a multiplier in ``[0, 1]`` (the
        Eq. (6) priority share); elements not listed keep their residual.
        All resources of a scaled element are scaled alike, matching the
        paper's per-NCP/per-link prediction.
        """
        view = self.copy()
        resources = set(self.network.resources()) | {BANDWIDTH}
        for element, factor in factors.items():
            if not 0.0 <= factor <= 1.0 + 1e-12:
                raise PlacementError(f"prediction factor for {element!r} must be in [0,1]")
            for resource in resources:
                current = view.capacity(element, resource)
                if current > 0.0:
                    view._set(element, resource, current * factor)
        return view

    def override(self, element_name: str, resource: str, value: float) -> None:
        """Set the residual capacity of one (element, resource) pair.

        Unlike :meth:`consume`/:meth:`release` this is an absolute
        assignment, used for what-if analysis and capacity fluctuation
        events; it may exceed the raw network capacity (a hypothetical
        upgrade) or drop to zero (an outage).
        """
        if value < 0:
            raise PlacementError(
                f"capacity for {element_name!r}/{resource!r} must be non-negative"
            )
        self.network.element(element_name)  # validate the name
        self._flat[(element_name, resource)] = value
        self._version += 1

    def reset_elements(
        self, elements: Iterable[str], source: "CapacityView"
    ) -> None:
        """Make this view's entries on ``elements`` equal ``source``'s.

        Every ``(element, resource)`` override this view holds on one of
        ``elements`` is dropped, then ``source``'s overrides on that
        element are copied in — so an entry ``source`` does not carry
        reads the raw network capacity again and leaves :meth:`freeze`.
        Other elements are not rewritten (see :meth:`rederive`).
        """
        wanted = set(elements)
        for key in [key for key in self._flat if key[0] in wanted]:
            del self._flat[key]
        for key, value in source._flat.items():
            if key[0] in wanted:
                self._flat[key] = value
        self._version += 1

    def rederive(
        self,
        elements: frozenset[str],
        source: "CapacityView",
        holds: Iterable[tuple[Loads, float]],
    ) -> None:
        """Re-derive this view's entries on ``elements`` from ``source``.

        :meth:`reset_elements`, then every ``(loads, rate)`` hold consumed
        again on ``elements`` only, clamped, in the order given: those
        entries come out bit-equal to a full rebuild from ``source``.  A
        withdraw runs this on the departed tenant's footprint, live and
        when a shard log is redone.
        """
        self.reset_elements(elements, source)
        for loads, rate in holds:
            kept = {e: bucket for e, bucket in loads.items() if e in elements}
            self.consume(kept, rate, clamp=True)

    def copy(self) -> "CapacityView":
        """An independent deep copy of this view (``version`` restarts at 0)."""
        view = CapacityView(self.network)
        view._flat = dict(self._flat)
        return view

    def freeze(self) -> ResidualSnapshot:
        """An immutable, picklable snapshot of this view's overrides.

        The snapshot records only the residuals that differ from the raw
        network capacities, so it is cheap to take, ship to worker
        threads/processes, and thaw with :meth:`from_snapshot`.
        """
        return ResidualSnapshot(
            network_name=self.network.name,
            entries=tuple(
                (element, resource, value)
                for (element, resource), value in sorted(self._flat.items())
            ),
        )

    @classmethod
    def from_snapshot(
        cls, network: Network, snapshot: ResidualSnapshot
    ) -> "CapacityView":
        """Thaw a :meth:`freeze` snapshot back into a mutable view.

        ``network`` must be the (possibly re-pickled) network the snapshot
        was frozen from; element names are trusted rather than re-validated,
        which is what makes per-request thawing cheap on the gateway's
        parallel evaluation path.
        """
        if snapshot.network_name != network.name:
            raise PlacementError(
                f"snapshot of network {snapshot.network_name!r} cannot thaw "
                f"against {network.name!r}"
            )
        view = cls(network)
        for element, resource, value in snapshot.entries:
            view._flat[(element, resource)] = value
        return view

    def snapshot(self) -> dict[str, dict[str, float]]:
        """The residual overrides as plain dicts (for logging/serializing)."""
        out: dict[str, dict[str, float]] = {}
        for (element, resource), value in self._flat.items():
            out.setdefault(element, {})[resource] = value
        return out

    def __repr__(self) -> str:
        overridden = len({element for element, _ in self._flat})
        return f"CapacityView({self.network.name!r}, overrides={overridden})"
