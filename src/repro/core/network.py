"""Dispersed computing network model (Sec. III-B of the paper).

The network is a graph whose vertices are Networked Computing Points (NCPs)
and whose edges are communication links.  Each NCP carries a multi-resource
capacity vector ``C_j^(r)`` (CPU MHz, memory MB, ...); each link carries a
bandwidth capacity ``C_j^(b)`` in Mbps.  Every element has an independent
failure probability ``Pf_j`` used for availability analysis.

Links are undirected by default (bandwidth shared across directions, per the
paper's footnote 2); a directed variant is supported for asymmetric links.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import networkx as nx

from repro.core.taskgraph import BANDWIDTH, CPU
from repro.exceptions import InvalidNetworkError


@dataclass(frozen=True)
class NCP:
    """A Networked Computing Point: one compute node of the network.

    ``capacities`` maps resource names to capacity in canonical units (CPU in
    MHz, memory in MB).  A zero capacity for a resource means the NCP cannot
    host any CT requiring that resource.
    """

    name: str
    capacities: Mapping[str, float] = field(default_factory=dict)
    failure_probability: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidNetworkError("an NCP must have a non-empty name")
        for resource, cap in self.capacities.items():
            if cap < 0:
                raise InvalidNetworkError(
                    f"NCP {self.name!r} has negative capacity for {resource!r}: {cap}"
                )
        if not 0.0 <= self.failure_probability <= 1.0:
            raise InvalidNetworkError(
                f"NCP {self.name!r} failure probability {self.failure_probability} not in [0, 1]"
            )
        object.__setattr__(self, "capacities", dict(self.capacities))

    def capacity(self, resource: str) -> float:
        """Capacity of ``resource`` (0 when the NCP does not provide it)."""
        return self.capacities.get(resource, 0.0)

    def __hash__(self) -> int:
        return hash(("NCP", self.name))


@dataclass(frozen=True)
class Link:
    """An undirected communication link between two NCPs."""

    name: str
    a: str
    b: str
    bandwidth: float
    failure_probability: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidNetworkError("a link must have a non-empty name")
        if self.a == self.b:
            raise InvalidNetworkError(f"link {self.name!r} is a self-loop on {self.a!r}")
        if self.bandwidth < 0:
            raise InvalidNetworkError(
                f"link {self.name!r} has negative bandwidth {self.bandwidth}"
            )
        if not 0.0 <= self.failure_probability <= 1.0:
            raise InvalidNetworkError(
                f"link {self.name!r} failure probability {self.failure_probability} not in [0, 1]"
            )

    def endpoints(self) -> frozenset[str]:
        """The two NCP names this link connects."""
        return frozenset((self.a, self.b))

    def other(self, ncp_name: str) -> str:
        """The endpoint opposite ``ncp_name``."""
        if ncp_name == self.a:
            return self.b
        if ncp_name == self.b:
            return self.a
        raise InvalidNetworkError(f"NCP {ncp_name!r} is not an endpoint of link {self.name!r}")

    def __hash__(self) -> int:
        return hash(("Link", self.name))


@dataclass(frozen=True)
class ResidualSnapshot:
    """A cheap, immutable, picklable snapshot of residual capacities.

    Captures one :class:`~repro.core.placement.CapacityView`'s overrides —
    only the ``(element, resource)`` pairs that differ from the raw
    network capacities — as a flat tuple, so snapshots ship to worker
    threads/processes for nothing and thaw back into views in O(overrides)
    without re-validating element names.  Produced by
    ``CapacityView.freeze()``; consumed by ``CapacityView.from_snapshot``.
    """

    network_name: str
    entries: tuple[tuple[str, str, float], ...] = ()

    def __len__(self) -> int:
        return len(self.entries)


class Network:
    """A validated dispersed-computing network graph.

    The topology is immutable; *capacities* are also immutable here — the
    scheduler tracks consumed resources in a separate
    :class:`~repro.core.placement.LoadLedger` so one ``Network`` can be
    shared across experiments and threads.
    """

    def __init__(
        self,
        name: str,
        ncps: Iterable[NCP],
        links: Iterable[Link],
        *,
        directed: bool = False,
    ) -> None:
        self.name = name
        self.directed = directed
        self._ncps: dict[str, NCP] = {}
        for ncp in ncps:
            if ncp.name in self._ncps:
                raise InvalidNetworkError(f"duplicate NCP name {ncp.name!r}")
            self._ncps[ncp.name] = ncp
        self._links: dict[str, Link] = {}
        self._graph = nx.DiGraph() if directed else nx.Graph()
        self._graph.add_nodes_from(self._ncps)
        for link in links:
            if link.name in self._links:
                raise InvalidNetworkError(f"duplicate link name {link.name!r}")
            if link.name in self._ncps:
                raise InvalidNetworkError(f"name {link.name!r} used by both an NCP and a link")
            for endpoint in (link.a, link.b):
                if endpoint not in self._ncps:
                    raise InvalidNetworkError(
                        f"link {link.name!r} references unknown NCP {endpoint!r}"
                    )
            if self._graph.has_edge(link.a, link.b):
                direction = "from" if directed else "between"
                raise InvalidNetworkError(
                    f"parallel links {direction} {link.a!r} "
                    f"{'to' if directed else 'and'} {link.b!r} are not supported"
                )
            self._links[link.name] = link
            self._graph.add_edge(link.a, link.b, link=link)
        if not self._ncps:
            raise InvalidNetworkError("a network needs at least one NCP")
        # The topology is immutable, so adjacency and capacity lookups —
        # both on the widest-path hot path — are memoized lazily.
        self._capacity_cache: dict[tuple[str, str], float] = {}
        self._incident_cache: dict[str, tuple[Link, ...]] = {}
        self._forward_cache: dict[str, tuple[Link, ...]] = {}
        self._backward_cache: dict[str, tuple[Link, ...]] = {}
        self._routing_graph: nx.Graph | nx.DiGraph | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def ncps(self) -> tuple[NCP, ...]:
        """All NCPs, in insertion order."""
        return tuple(self._ncps.values())

    @property
    def links(self) -> tuple[Link, ...]:
        """All links, in insertion order."""
        return tuple(self._links.values())

    @property
    def ncp_names(self) -> tuple[str, ...]:
        """Names of all NCPs, in insertion order."""
        return tuple(self._ncps)

    @property
    def link_names(self) -> tuple[str, ...]:
        """Names of all links, in insertion order."""
        return tuple(self._links)

    @property
    def n_elements(self) -> int:
        """NCPs + links, counted without materializing either tuple."""
        return len(self._ncps) + len(self._links)

    def ncp(self, name: str) -> NCP:
        """Look up an NCP by name."""
        try:
            return self._ncps[name]
        except KeyError:
            raise InvalidNetworkError(f"no NCP named {name!r} in {self.name!r}") from None

    def link(self, name: str) -> Link:
        """Look up a link by name."""
        try:
            return self._links[name]
        except KeyError:
            raise InvalidNetworkError(f"no link named {name!r} in {self.name!r}") from None

    def has_ncp(self, name: str) -> bool:
        """Whether an NCP with this name exists."""
        return name in self._ncps

    def element(self, name: str) -> NCP | Link:
        """Look up an element (NCP or link) by name."""
        if name in self._ncps:
            return self._ncps[name]
        if name in self._links:
            return self._links[name]
        raise InvalidNetworkError(f"no element named {name!r} in {self.name!r}")

    def element_names(self) -> tuple[str, ...]:
        """Names of all elements: NCPs then links, insertion order."""
        return tuple(itertools.chain(self._ncps, self._links))

    def link_between(self, a: str, b: str) -> Link | None:
        """The link connecting NCPs ``a`` and ``b``, or ``None``.

        In a directed network only the ``a -> b`` direction matches.
        """
        if self._graph.has_edge(a, b):
            return self._graph.edges[a, b]["link"]
        return None

    def incident_links(self, ncp_name: str) -> tuple[Link, ...]:
        """Links touching ``ncp_name`` (either direction), sorted by name."""
        cached = self._incident_cache.get(ncp_name)
        if cached is None:
            self.ncp(ncp_name)
            touching = [
                link for link in self._links.values() if ncp_name in link.endpoints()
            ]
            cached = tuple(sorted(touching, key=lambda l: l.name))
            self._incident_cache[ncp_name] = cached
        return cached

    def forward_links(self, ncp_name: str) -> tuple[Link, ...]:
        """Links traversable *from* ``ncp_name`` (what routing may use).

        Every incident link in an undirected network; only outgoing links
        (``link.a == ncp_name``) in a directed one.
        """
        if not self.directed:
            return self.incident_links(ncp_name)
        cached = self._forward_cache.get(ncp_name)
        if cached is None:
            self.ncp(ncp_name)
            cached = tuple(
                sorted(
                    (l for l in self._links.values() if l.a == ncp_name),
                    key=lambda l: l.name,
                )
            )
            self._forward_cache[ncp_name] = cached
        return cached

    def backward_links(self, ncp_name: str) -> tuple[Link, ...]:
        """Links traversable *into* ``ncp_name`` (reverse routing).

        Every incident link in an undirected network; only incoming links
        (``link.b == ncp_name``) in a directed one.  Used by the reverse
        widest-path trees (``widest_path_tree(reverse=True)``).
        """
        if not self.directed:
            return self.incident_links(ncp_name)
        cached = self._backward_cache.get(ncp_name)
        if cached is None:
            self.ncp(ncp_name)
            cached = tuple(
                sorted(
                    (l for l in self._links.values() if l.b == ncp_name),
                    key=lambda l: l.name,
                )
            )
            self._backward_cache[ncp_name] = cached
        return cached

    def neighbors(self, ncp_name: str) -> list[str]:
        """NCPs adjacent to ``ncp_name`` (either direction), sorted."""
        self.ncp(ncp_name)
        if self.directed:
            adjacent = set(self._graph.successors(ncp_name)) | set(
                self._graph.predecessors(ncp_name)
            )
            return sorted(adjacent)
        return sorted(self._graph.neighbors(ncp_name))

    def routing_graph(self) -> "nx.Graph | nx.DiGraph":
        """The memoized networkx view the hop-count routers search over.

        Edges carry ``link`` (the link *name*) and ``bandwidth`` (the raw
        capacity).  The topology is immutable, so the graph is built once
        per network and reused by every subsequent call — there is no
        topology-change path that could invalidate it, and constructing a
        changed topology means constructing a new :class:`Network` (with
        its own fresh cache).  ``network.routing_graph_build`` /
        ``network.routing_graph_reuse`` count the build-vs-hit traffic so
        the reuse is observable.  Callers must treat the graph as
        read-only.
        """
        from repro.perf import counters

        if self._routing_graph is None:
            counters.incr("network.routing_graph_build")
            graph = nx.DiGraph() if self.directed else nx.Graph()
            for link in self._links.values():
                graph.add_edge(
                    link.a, link.b, link=link.name, bandwidth=link.bandwidth
                )
            graph.add_nodes_from(self._ncps)
            self._routing_graph = graph
        else:
            counters.incr("network.routing_graph_reuse")
        return self._routing_graph

    def is_connected(self) -> bool:
        """Single connected component (weakly connected when directed)."""
        if self.directed:
            return nx.is_weakly_connected(self._graph)
        return nx.is_connected(self._graph)

    def capacity(self, element_name: str, resource: str) -> float:
        """Capacity of ``resource`` on the given NCP or link.

        For links the only meaningful resource is :data:`BANDWIDTH`.
        """
        key = (element_name, resource)
        value = self._capacity_cache.get(key)
        if value is None:
            element = self.element(element_name)
            if isinstance(element, Link):
                value = element.bandwidth if resource == BANDWIDTH else 0.0
            else:
                value = element.capacity(resource)
            self._capacity_cache[key] = value
        return value

    def failure_probability(self, element_name: str) -> float:
        """Failure probability of the given NCP or link."""
        return self.element(element_name).failure_probability

    def resources(self) -> frozenset[str]:
        """All NCP resource types any node provides."""
        return frozenset(
            itertools.chain.from_iterable(ncp.capacities for ncp in self._ncps.values())
        )

    def __repr__(self) -> str:
        return f"Network({self.name!r}, |N|={len(self._ncps)}, |L|={len(self._links)})"


def as_directed(network: Network, *, name: str | None = None) -> Network:
    """A directed twin of an undirected network (paper footnote 2).

    Every undirected link ``l`` becomes two one-way links ``l>`` (a to b)
    and ``l<`` (b to a), each carrying the *full* bandwidth — modelling
    full-duplex links whose directions do not share capacity.  Failure
    probabilities carry over to both directions.
    """
    if network.directed:
        raise InvalidNetworkError(f"network {network.name!r} is already directed")
    links: list[Link] = []
    for link in network.links:
        links.append(
            Link(f"{link.name}>", link.a, link.b, link.bandwidth,
                 failure_probability=link.failure_probability)
        )
        links.append(
            Link(f"{link.name}<", link.b, link.a, link.bandwidth,
                 failure_probability=link.failure_probability)
        )
    return Network(
        name or f"{network.name}-directed", network.ncps, links, directed=True
    )


# ----------------------------------------------------------------------
# Topology builders used across the paper's evaluation
# ----------------------------------------------------------------------
def star_network(
    n_leaves: int = 7,
    *,
    name: str = "star",
    hub_cpu: float = 3000.0,
    leaf_cpu: Iterable[float] | float = 3000.0,
    link_bandwidth: Iterable[float] | float = 10.0,
    link_failure_probability: float = 0.0,
    ncp_failure_probability: float = 0.0,
    extra_capacities: Mapping[str, Iterable[float] | float] | None = None,
) -> Network:
    """A star of ``n_leaves`` NCPs around a hub (``n_leaves + 1`` NCPs total).

    This is the paper's "star computing network with eight NCPs" when
    ``n_leaves=7``.  ``extra_capacities`` adds more resource types (e.g.
    memory) to hub+leaves with broadcast semantics.
    """
    if n_leaves < 1:
        raise InvalidNetworkError("a star needs at least one leaf")
    leaf_cpus = _broadcast(leaf_cpu, n_leaves, "leaf_cpu")
    bandwidths = _broadcast(link_bandwidth, n_leaves, "link_bandwidth")
    extras = {
        resource: _broadcast(values, n_leaves + 1, f"extra_capacities[{resource!r}]")
        for resource, values in (extra_capacities or {}).items()
    }

    def caps(index: int, cpu_value: float) -> dict[str, float]:
        out = {CPU: cpu_value}
        for resource, values in extras.items():
            out[resource] = values[index]
        return out

    ncps = [NCP("hub", caps(0, hub_cpu), failure_probability=ncp_failure_probability)]
    ncps += [
        NCP(f"ncp{k + 1}", caps(k + 1, leaf_cpus[k]), failure_probability=ncp_failure_probability)
        for k in range(n_leaves)
    ]
    links = [
        Link(
            f"l{k + 1}",
            "hub",
            f"ncp{k + 1}",
            bandwidths[k],
            failure_probability=link_failure_probability,
        )
        for k in range(n_leaves)
    ]
    return Network(name, ncps, links)


def linear_network(
    n_ncps: int = 5,
    *,
    name: str = "linear-net",
    cpu: Iterable[float] | float = 3000.0,
    link_bandwidth: Iterable[float] | float = 10.0,
    link_failure_probability: float = 0.0,
    ncp_failure_probability: float = 0.0,
    extra_capacities: Mapping[str, Iterable[float] | float] | None = None,
) -> Network:
    """A chain topology ``ncp1 - ncp2 - ... - ncpN``."""
    if n_ncps < 2:
        raise InvalidNetworkError("a linear network needs at least two NCPs")
    cpus = _broadcast(cpu, n_ncps, CPU)
    bandwidths = _broadcast(link_bandwidth, n_ncps - 1, "link_bandwidth")
    extras = {
        resource: _broadcast(values, n_ncps, f"extra_capacities[{resource!r}]")
        for resource, values in (extra_capacities or {}).items()
    }

    def caps(index: int) -> dict[str, float]:
        out = {CPU: cpus[index]}
        for resource, values in extras.items():
            out[resource] = values[index]
        return out

    ncps = [
        NCP(f"ncp{k + 1}", caps(k), failure_probability=ncp_failure_probability)
        for k in range(n_ncps)
    ]
    links = [
        Link(
            f"l{k + 1}",
            f"ncp{k + 1}",
            f"ncp{k + 2}",
            bandwidths[k],
            failure_probability=link_failure_probability,
        )
        for k in range(n_ncps - 1)
    ]
    return Network(name, ncps, links)


def fully_connected_network(
    n_ncps: int = 5,
    *,
    name: str = "full-net",
    cpu: Iterable[float] | float = 3000.0,
    link_bandwidth: Iterable[float] | float = 10.0,
    link_failure_probability: float = 0.0,
    ncp_failure_probability: float = 0.0,
    extra_capacities: Mapping[str, Iterable[float] | float] | None = None,
) -> Network:
    """A clique topology over ``n_ncps`` NCPs."""
    if n_ncps < 2:
        raise InvalidNetworkError("a fully connected network needs at least two NCPs")
    cpus = _broadcast(cpu, n_ncps, CPU)
    n_links = n_ncps * (n_ncps - 1) // 2
    bandwidths = _broadcast(link_bandwidth, n_links, "link_bandwidth")
    extras = {
        resource: _broadcast(values, n_ncps, f"extra_capacities[{resource!r}]")
        for resource, values in (extra_capacities or {}).items()
    }

    def caps(index: int) -> dict[str, float]:
        out = {CPU: cpus[index]}
        for resource, values in extras.items():
            out[resource] = values[index]
        return out

    ncps = [
        NCP(f"ncp{k + 1}", caps(k), failure_probability=ncp_failure_probability)
        for k in range(n_ncps)
    ]
    links = []
    index = 0
    for i in range(n_ncps):
        for j in range(i + 1, n_ncps):
            links.append(
                Link(
                    f"l{index + 1}",
                    f"ncp{i + 1}",
                    f"ncp{j + 1}",
                    bandwidths[index],
                    failure_probability=link_failure_probability,
                )
            )
            index += 1
    return Network(name, ncps, links)


def _broadcast(value: Iterable[float] | float, count: int, label: str) -> list[float]:
    """Expand a scalar to ``count`` copies, or validate an iterable's length."""
    if isinstance(value, (int, float)):
        return [float(value)] * count
    values = [float(v) for v in value]
    if len(values) != count:
        raise InvalidNetworkError(f"{label} must have {count} entries, got {len(values)}")
    return values
