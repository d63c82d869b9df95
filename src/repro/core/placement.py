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


#: The unit a hold is counted in: ``rate × load`` is held as the integer
#: ``round(rate × load / QUANTUM)``, so a release subtracts exactly what
#: its consume added.
QUANTUM = 2.0**-64


class CapacityView:
    """Residual (or predicted) capacities over a network.

    An entry's residual is ``max(0, capacity − held × QUANTUM)``: a pure
    function of its *capacity* (the network's, unless :meth:`override`
    set another) and its *held* amount, the exact integer sum of the
    live holds.  :meth:`consume` adds one ``(loads, rate)`` hold and
    :meth:`release` subtracts it again, so the residual never depends on
    the order holds came and went.  :meth:`scaled` (the Theorem-3
    priority prediction of Eq. (6)) and :meth:`from_snapshot` derive a
    view whose capacities are residuals and which holds nothing.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        # (element, resource) -> capacity, where it differs from the raw one.
        self._base: dict[tuple[str, str], float] = {}
        # (element, resource) -> Σ held quanta, nonzero entries only.
        self._held: dict[tuple[str, str], int] = {}
        # (element, resource) -> residual, for every entry that has a hold
        # or a capacity edit: one dict probe on the capacity() hot path
        # and one flat dict to copy (the network memoizes raw capacities).
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

        Only the entries with a hold or a capacity edit are yielded — the
        same set :meth:`freeze` snapshots (unsorted here: this is the
        O(overrides) hot path for array compilation).
        """
        for (element, resource), value in self._flat.items():
            yield element, resource, value

    def capacity(self, element_name: str, resource: str) -> float:
        """Residual capacity of ``resource`` on ``element_name``."""
        value = self._flat.get((element_name, resource))
        if value is not None:
            return value
        return self.network.capacity(element_name, resource)

    def held(self, element_name: str, resource: str) -> int:
        """The entry's held amount, in units of :data:`QUANTUM`."""
        return self._held.get((element_name, resource), 0)

    @staticmethod
    def _amounts(loads: Loads, rate: float) -> Iterator[tuple[tuple[str, str], int]]:
        """The hold of ``rate`` units/s over ``loads``, entry by entry."""
        if rate < 0:
            raise PlacementError(f"cannot hold a negative rate {rate}")
        for element, bucket in loads.items():
            for resource, load in bucket.items():
                if load > 0.0:
                    yield (element, resource), round(rate * load / QUANTUM)

    def _add(self, key: tuple[str, str], amount: int) -> None:
        held = self._held.get(key, 0) + amount
        base = self._base.get(key)
        if held:
            self._held[key] = held
        else:
            self._held.pop(key, None)
            if base is None:
                self._flat.pop(key, None)
                return
        if base is None:
            base = self.network.capacity(*key)
        self._flat[key] = max(0.0, base - held * QUANTUM)

    def consume(self, loads: Loads, rate: float) -> None:
        """Hold ``rate * load`` on every entry the loads touch.

        Never refuses: an entry held past its capacity reads zero (see
        :meth:`reserve` for the checked form a commit uses).
        """
        for key, amount in self._amounts(loads, rate):
            self._add(key, amount)
        self._version += 1

    def reserve(self, holds: Iterable[tuple[Loads, float]]) -> None:
        """Consume every ``(loads, rate)`` hold, or none of them.

        Raises :class:`PlacementError`, changing nothing, when together
        they would take an entry more than ``1e-6 × max(1, raw
        capacity)`` below zero — a proposal evaluated against other
        residuals than the live ones.
        """
        added: dict[tuple[str, str], int] = {}
        for loads, rate in holds:
            for key, amount in self._amounts(loads, rate):
                added[key] = added.get(key, 0) + amount
        raw = self.network.capacity
        writes = []
        for key, amount in added.items():
            capacity = raw(*key)
            held = self._held.get(key, 0) + amount
            residual = self._base.get(key, capacity) - held * QUANTUM
            if residual < -1e-6 * max(1.0, capacity):
                element, resource = key
                raise PlacementError(
                    f"holding {amount * QUANTUM} of {resource!r} on {element!r} "
                    f"exceeds residual capacity by {-residual}"
                )
            if held:
                writes.append((key, held, max(0.0, residual)))
        for key, held, residual in writes:
            self._held[key] = held
            self._flat[key] = residual
        self._version += 1

    def release(self, loads: Loads, rate: float) -> None:
        """Subtract a hold :meth:`consume` added: its exact inverse.

        Raises :class:`PlacementError`, changing nothing, if an entry
        holds less than the release names — that would mint capacity.
        """
        amounts = list(self._amounts(loads, rate))
        for key, amount in amounts:
            if amount > self._held.get(key, 0):
                raise PlacementError(
                    f"releasing {amount * QUANTUM} of {key[1]!r} on {key[0]!r}"
                    " that was never held"
                )
        for key, amount in amounts:
            self._add(key, -amount)
        self._version += 1

    def _derived(self) -> "CapacityView":
        """A view holding nothing whose capacities are these residuals."""
        view = CapacityView(self.network)
        view._base = dict(self._flat)
        view._flat = dict(self._flat)
        return view

    def scaled(self, factors: Mapping[str, float]) -> "CapacityView":
        """A derived view with per-element multiplicative factors applied.

        ``factors`` maps element names to a multiplier in ``[0, 1]`` (the
        Eq. (6) priority share); elements not listed keep their residual.
        All resources of a scaled element are scaled alike, matching the
        paper's per-NCP/per-link prediction.  The result holds nothing.
        """
        view = self._derived()
        resources = set(self.network.resources()) | {BANDWIDTH}
        for element, factor in factors.items():
            if not 0.0 <= factor <= 1.0 + 1e-12:
                raise PlacementError(f"prediction factor for {element!r} must be in [0,1]")
            for resource in resources:
                current = view.capacity(element, resource)
                if current > 0.0:
                    view._base[(element, resource)] = current * factor
                    view._flat[(element, resource)] = current * factor
        return view

    def override(self, element_name: str, resource: str, value: float) -> None:
        """Set the capacity of one (element, resource) pair.

        The entry's holds stay and draw on the new capacity: used for
        capacity fluctuations, outages (zero) and what-if analysis.  It
        may exceed the raw network capacity (a hypothetical upgrade); set
        back to the raw capacity it is no edit at all.
        """
        if value < 0:
            raise PlacementError(
                f"capacity for {element_name!r}/{resource!r} must be non-negative"
            )
        self.network.element(element_name)  # validate the name
        key = (element_name, resource)
        if value == self.network.capacity(element_name, resource):
            self._base.pop(key, None)
        else:
            self._base[key] = value
        self._add(key, 0)
        self._version += 1

    def copy(self) -> "CapacityView":
        """An independent deep copy, holds included (``version`` restarts at 0)."""
        view = CapacityView(self.network)
        view._base = dict(self._base)
        view._held = dict(self._held)
        view._flat = dict(self._flat)
        return view

    def freeze(self) -> ResidualSnapshot:
        """An immutable, picklable snapshot of this view's overrides.

        The snapshot records only the residuals of entries with a hold
        or a capacity edit, so it is cheap to take, ship to worker
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
        """Thaw a :meth:`freeze` snapshot into a derived view.

        The snapshot's residuals become the capacities of a view that
        holds nothing.  ``network`` must be the (possibly re-pickled)
        network the snapshot was frozen from; element names are trusted
        rather than re-validated, which keeps thawing cheap.
        """
        if snapshot.network_name != network.name:
            raise PlacementError(
                f"snapshot of network {snapshot.network_name!r} cannot thaw "
                f"against {network.name!r}"
            )
        view = cls(network)
        for element, resource, value in snapshot.entries:
            view._base[(element, resource)] = value
        view._flat = dict(view._base)
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
