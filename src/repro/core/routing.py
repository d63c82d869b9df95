"""Algorithm 1: load-aware widest-path routing for transport tasks.

When Algorithm 2 considers sending a TT ``k`` between NCPs ``j`` and ``j'``,
the *best path* is the one maximizing the bottleneck processing rate its
links would impose (Eq. (3)):

    P*_k(j, j') = argmax over paths P of  min over links l in P of
                    C_l^(b) / (a_k^(b) + existing per-unit TT load on l).

This is a max-min ("widest") path problem over link weights that depend on
what has already been placed, solved with a modified Dijkstra in
``O(|L| log |N|)``.  Ties are broken deterministically (lexicographically
smallest predecessor) so the whole scheduler is reproducible.

Two interchangeable kernels implement the search:

* ``"array"`` — the CSR-compiled kernel of :mod:`repro.core.arrays`:
  link weights for the whole network are evaluated in one vectorized
  pass and the relaxation loop runs over int arrays;
* ``"dict"`` — the original dict-of-dicts kernel, retained verbatim as
  the equivalence baseline.

The default selection is ``"auto"``: networks with fewer than
:data:`SMALL_NETWORK_ELEMENTS` elements (NCPs + links) route through the
dict kernel — below that size the CSR compile/warm-up overhead exceeds
the vectorized win (the star-8 ``kernel_speedup: 0.88`` regression in
``BENCH_assignment.json``) — and everything larger uses the array
kernel.  Both kernels produce bit-identical decisions (widths,
predecessors, tiebreaks), so the dispatch never changes a scheduling
outcome; select explicitly with :func:`set_route_kernel` or the
``SPARCLE_ROUTE_KERNEL`` environment variable.
"""

from __future__ import annotations

import heapq
import math
import os
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core import arrays
from repro.core.network import Network
from repro.core.placement import CapacityView
from repro.exceptions import InvalidNetworkError
from repro.perf import counters


# ----------------------------------------------------------------------
# Kernel selection
# ----------------------------------------------------------------------
_VALID_KERNELS = ("auto", "array", "dict")

#: Networks with fewer elements (NCPs + links) than this route through the
#: dict kernel under ``"auto"``: the CSR compile + per-query array setup
#: costs more than the vectorized relaxation saves on tiny graphs
#: (star-8 is 15 elements and loses ~12%; star-16 at 31 elements already
#: wins 1.2x), so the crossover sits between those sizes.
SMALL_NETWORK_ELEMENTS = 24

_route_kernel = os.environ.get("SPARCLE_ROUTE_KERNEL", "auto")
if _route_kernel not in _VALID_KERNELS:  # pragma: no cover - env misuse
    raise ValueError(
        f"SPARCLE_ROUTE_KERNEL must be one of {_VALID_KERNELS}, "
        f"got {_route_kernel!r}"
    )


def get_route_kernel() -> str:
    """The selected Algorithm-1 kernel: ``"auto"``, ``"array"`` or ``"dict"``."""
    return _route_kernel


def resolve_route_kernel(network: Network) -> str:
    """The concrete kernel (``"array"`` or ``"dict"``) a query would use.

    ``"auto"`` resolves per network by element count; an explicit
    selection is returned unchanged.
    """
    if _route_kernel != "auto":
        return _route_kernel
    return "dict" if network.n_elements < SMALL_NETWORK_ELEMENTS else "array"


def set_route_kernel(kernel: str) -> str:
    """Select the Algorithm-1 kernel; returns the previous selection.

    ``"array"`` is the CSR/numpy kernel, ``"dict"`` the legacy reference
    kernel, and ``"auto"`` (the default) dispatches per network size via
    :func:`resolve_route_kernel`.  Decision identity between the kernels
    is enforced by the equivalence suites, so switching is safe at any
    point — the flag exists for benchmarking and for bisecting kernel
    regressions.
    """
    global _route_kernel
    if kernel not in _VALID_KERNELS:
        raise ValueError(f"kernel must be one of {_VALID_KERNELS}, got {kernel!r}")
    previous = _route_kernel
    _route_kernel = kernel
    return previous


@contextmanager
def route_kernel(kernel: str) -> Iterator[None]:
    """Temporarily select a kernel (tests and A/B benchmarks)."""
    previous = set_route_kernel(kernel)
    try:
        yield
    finally:
        set_route_kernel(previous)


@dataclass(frozen=True)
class RouteResult:
    """A routed path and the rate bottleneck its links impose.

    ``links`` is ordered from source to destination; ``bottleneck`` is the
    max-min weight (``inf`` for the trivial same-node path).
    """

    links: tuple[str, ...]
    bottleneck: float


def link_weight(
    network: Network,
    capacities: CapacityView,
    link_name: str,
    tt_megabits: float,
    link_loads: Mapping[str, float],
) -> float:
    """The rate the link could sustain if the TT were added to it.

    ``link_loads`` carries the per-unit megabit load of TTs *of the same
    assignment path* already routed over each link (the ``y_{i'',l}`` terms
    in Eq. (3)); capacity consumed by other applications/paths is already
    reflected in ``capacities``.
    """
    from repro.core.taskgraph import BANDWIDTH

    denominator = tt_megabits + link_loads.get(link_name, 0.0)
    if denominator <= 0.0:
        return math.inf
    return capacities.capacity(link_name, BANDWIDTH) / denominator


#: Caller-owned memo for Eq.-(3) weight arrays, keyed by
#: ``(CapacityView.version, tt_megabits)``.  The caller owns the link-load
#: state, so it also owns the cache's validity: pass the same dict across
#: queries made under one load state and *clear it whenever the loads
#: mutate* (capacity mutations are keyed out automatically via the view
#: version).  Only the array kernel consults it; the dict kernel computes
#: per-edge weights inline either way.
WeightsCache = dict[tuple[int, float], "arrays.FloatArray"]


def widest_path(
    network: Network,
    capacities: CapacityView,
    src: str,
    dst: str,
    tt_megabits: float,
    link_loads: Mapping[str, float] | None = None,
    *,
    weights_cache: WeightsCache | None = None,
) -> RouteResult | None:
    """Find ``P*_k(src, dst)`` with the modified Dijkstra of Algorithm 1.

    Returns ``None`` when ``dst`` is unreachable from ``src``.  A path whose
    bottleneck is ``0`` (some link has zero residual bandwidth) is still
    returned — the caller decides whether a zero-rate path is acceptable —
    but wider paths always win over it.
    """
    network.ncp(src)
    network.ncp(dst)
    loads = link_loads or {}
    counters.incr("routing.widest_path")
    if src == dst:
        return RouteResult((), math.inf)
    if resolve_route_kernel(network) == "array":
        return _widest_path_array(
            network, capacities, src, dst, tt_megabits, loads, weights_cache
        )
    return _widest_path_dict(network, capacities, src, dst, tt_megabits, loads)


def cached_link_weights(
    compiled: "arrays.CompiledNetwork",
    capacities: CapacityView,
    tt_megabits: float,
    loads: Mapping[str, float],
    cache: WeightsCache | None,
) -> "arrays.FloatArray":
    """One vectorized Eq.-(3) pass, memoized in the caller-owned cache."""
    if cache is None:
        residual = arrays.link_residuals(compiled, capacities)
        return arrays.link_weights(compiled, residual, tt_megabits, loads)
    key = (capacities.version, tt_megabits)
    weights = cache.get(key)
    if weights is None:
        residual = arrays.link_residuals(compiled, capacities)
        weights = arrays.link_weights(compiled, residual, tt_megabits, loads)
        cache[key] = weights
    return weights


def _widest_path_array(
    network: Network,
    capacities: CapacityView,
    src: str,
    dst: str,
    tt_megabits: float,
    loads: Mapping[str, float],
    weights_cache: WeightsCache | None = None,
) -> RouteResult | None:
    """Point query on the CSR kernel, early-exiting once ``dst`` settles."""
    compiled = arrays.compile_network(network)
    weights = cached_link_weights(
        compiled, capacities, tt_megabits, loads, weights_cache
    )
    src_idx = compiled.node_index[src]
    dst_idx = compiled.node_index[dst]
    widths, prev_node, prev_link = arrays.run_widest(
        compiled, weights, src_idx, dst=dst_idx
    )
    if prev_node[dst_idx] < 0:
        return None
    link_names = compiled.link_names
    links: list[str] = []
    node = dst_idx
    while node != src_idx:
        links.append(link_names[prev_link[node]])
        node = prev_node[node]
    links.reverse()
    return RouteResult(tuple(links), widths[dst_idx])


def _widest_path_dict(
    network: Network,
    capacities: CapacityView,
    src: str,
    dst: str,
    tt_megabits: float,
    loads: Mapping[str, float],
) -> RouteResult | None:
    """The original dict-of-dicts Algorithm-1 point search (reference)."""
    # phi[v]: best known bottleneck from src to v (Algorithm 1's phi).
    phi: dict[str, float] = {src: math.inf}
    prev: dict[str, tuple[str, str]] = {}  # v -> (previous NCP, link used)
    visited: set[str] = set()
    # Max-heap via negated keys; the node name is the deterministic tiebreak.
    heap: list[tuple[float, str]] = [(-math.inf, src)]
    while heap:
        negwidth, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == dst:
            break
        width = -negwidth
        for link in network.forward_links(node):
            neighbor = link.other(node)
            if neighbor in visited:
                continue
            w = link_weight(network, capacities, link.name, tt_megabits, loads)
            candidate = min(width, w)
            if candidate > phi.get(neighbor, -math.inf):
                phi[neighbor] = candidate
                prev[neighbor] = (node, link.name)
                heapq.heappush(heap, (-candidate, neighbor))
    if dst not in prev:
        return None
    links: list[str] = []
    node = dst
    while node != src:
        parent, link_name = prev[node]
        links.append(link_name)
        node = parent
    links.reverse()
    return RouteResult(tuple(links), phi[dst])


@dataclass(frozen=True)
class WidestPathTree:
    """Single-source widest-path widths (and routes) from one root.

    One modified-Dijkstra pass from ``root`` settles the max-min bottleneck
    width to *every* reachable NCP, with the same strict-improvement /
    name-ordered tiebreaks as :func:`widest_path` — so ``route_to`` (in
    forward mode) and ``width_to`` reproduce per-destination
    :func:`widest_path` results bit-for-bit while paying the
    ``O(|L| log |N|)`` search once instead of once per destination.

    ``reverse=True`` computes widths of paths *into* the root (traversing
    directed links backwards), which is what Algorithm 2 needs when probing
    candidate source hosts against a fixed placed destination host.

    Algorithm 2 itself no longer searches per root: its width probes read
    :func:`repro.core.arrays.all_pairs_widths`, whose rows and columns
    equal these trees' ``widths`` (the trees are that table's test oracle).
    """

    root: str
    tt_megabits: float
    reverse: bool
    widths: Mapping[str, float]
    prev: Mapping[str, tuple[str, str]] = field(repr=False)

    def width_to(self, node: str) -> float | None:
        """Bottleneck width root->node (node->root when reversed).

        ``None`` when unreachable, matching :func:`widest_path` returning
        ``None``; ``inf`` for the trivial ``node == root`` case.
        """
        return self.widths.get(node)

    def links_to(self, node: str) -> tuple[str, ...] | None:
        """The settled route's links, ordered in data direction."""
        if node not in self.widths:
            return None
        links: list[str] = []
        current = node
        while current != self.root:
            parent, link_name = self.prev[current]
            links.append(link_name)
            current = parent
        if not self.reverse:
            links.reverse()
        return tuple(links)

    def route_to(self, node: str) -> RouteResult | None:
        """Per-destination :class:`RouteResult` (``None`` if unreachable)."""
        links = self.links_to(node)
        if links is None:
            return None
        return RouteResult(links, self.widths[node])


def widest_path_tree(
    network: Network,
    capacities: CapacityView,
    root: str,
    tt_megabits: float,
    link_loads: Mapping[str, float] | None = None,
    *,
    reverse: bool = False,
    weights_cache: WeightsCache | None = None,
) -> WidestPathTree:
    """Batched Algorithm 1: widest paths from ``root`` to all NCPs at once.

    Runs the modified Dijkstra of :func:`widest_path` to exhaustion instead
    of stopping at one destination.  Because a settled node's ``phi`` and
    predecessor can never change after it is popped, the per-destination
    results are identical to what the early-stopping point-to-point search
    would have produced — including tiebreaks.

    ``weights_cache`` (see :data:`WeightsCache`) lets a caller issuing many
    searches under one load state share the vectorized weight pass — the
    weights depend on ``(capacities, tt_megabits, loads)`` but not on the
    root, so every search of one round hits the same array.
    """
    network.ncp(root)
    loads = link_loads or {}
    counters.incr("routing.widest_path_tree")
    if resolve_route_kernel(network) == "array":
        return _widest_path_tree_array(
            network, capacities, root, tt_megabits, loads, reverse, weights_cache
        )
    return _widest_path_tree_dict(
        network, capacities, root, tt_megabits, loads, reverse
    )


def _widest_path_tree_array(
    network: Network,
    capacities: CapacityView,
    root: str,
    tt_megabits: float,
    loads: Mapping[str, float],
    reverse: bool,
    weights_cache: WeightsCache | None = None,
) -> WidestPathTree:
    """Single-source tree on the CSR kernel (run to exhaustion)."""
    compiled = arrays.compile_network(network)
    weights = cached_link_weights(
        compiled, capacities, tt_megabits, loads, weights_cache
    )
    root_idx = compiled.node_index[root]
    width_l, prev_node, prev_link = arrays.run_widest(
        compiled, weights, root_idx, reverse=reverse
    )
    node_names = compiled.node_names
    link_names = compiled.link_names
    neg_inf = -math.inf
    if neg_inf in width_l:
        phi = {
            name: w for name, w in zip(node_names, width_l) if w != neg_inf
        }
    else:  # every node reached (the common connected-network case)
        phi = dict(zip(node_names, width_l))
    prev = {
        node_names[i]: (node_names[p], link_names[prev_link[i]])
        for i, p in enumerate(prev_node)
        if p >= 0
    }
    return WidestPathTree(root, tt_megabits, reverse, phi, prev)


def _widest_path_tree_dict(
    network: Network,
    capacities: CapacityView,
    root: str,
    tt_megabits: float,
    loads: Mapping[str, float],
    reverse: bool,
) -> WidestPathTree:
    """The original dict-of-dicts single-source tree (reference)."""
    expand = network.backward_links if reverse else network.forward_links
    phi: dict[str, float] = {root: math.inf}
    prev: dict[str, tuple[str, str]] = {}
    visited: set[str] = set()
    heap: list[tuple[float, str]] = [(-math.inf, root)]
    while heap:
        negwidth, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        width = -negwidth
        for link in expand(node):
            neighbor = link.other(node)
            if neighbor in visited:
                continue
            w = link_weight(network, capacities, link.name, tt_megabits, loads)
            candidate = min(width, w)
            if candidate > phi.get(neighbor, -math.inf):
                phi[neighbor] = candidate
                prev[neighbor] = (node, link.name)
                heapq.heappush(heap, (-candidate, neighbor))
    return WidestPathTree(root, tt_megabits, reverse, phi, prev)


def hop_shortest_path(network: Network, src: str, dst: str) -> RouteResult | None:
    """Minimum-hop routing (the baseline schedulers' router).

    The bottleneck reported is the raw minimum link bandwidth along the
    path, ignoring load — deliberately, to mirror network-oblivious
    schedulers like those of Spark/Kubernetes the paper contrasts with.

    The networkx graph searched is ``Network.routing_graph()`` — built
    once per (immutable) network and reused across calls, instead of
    being reconstructed per query as it historically was.
    """
    import networkx as nx

    network.ncp(src)
    network.ncp(dst)
    counters.incr("routing.hop_shortest_path")
    if src == dst:
        return RouteResult((), math.inf)
    graph = network.routing_graph()
    try:
        nodes = nx.shortest_path(graph, src, dst)
    except nx.NetworkXNoPath:
        return None
    links = tuple(graph.edges[a, b]["link"] for a, b in zip(nodes, nodes[1:]))
    bottleneck = min(network.link(name).bandwidth for name in links)
    return RouteResult(links, bottleneck)


def all_simple_routes(
    network: Network, src: str, dst: str, *, cutoff: int | None = None
) -> list[tuple[str, ...]]:
    """Every simple path (as link tuples) between two NCPs.

    Used by the exhaustive-search optimal baseline; exponential in general,
    so ``cutoff`` bounds path length.  Deterministically ordered.
    """
    import networkx as nx

    network.ncp(src)
    network.ncp(dst)
    if src == dst:
        return [()]
    graph = network.routing_graph()
    if not nx.has_path(graph, src, dst):
        return []
    routes = []
    for nodes in nx.all_simple_paths(graph, src, dst, cutoff=cutoff):
        routes.append(tuple(graph.edges[a, b]["link"] for a, b in zip(nodes, nodes[1:])))
    routes.sort()
    return routes


def validate_route(network: Network, src: str, dst: str, links: tuple[str, ...]) -> None:
    """Raise unless ``links`` is a contiguous simple path from src to dst.

    In a directed network every hop must also follow the link's direction.
    """
    current = src
    seen: set[str] = set()
    for link_name in links:
        link = network.link(link_name)
        if link_name in seen:
            raise InvalidNetworkError(f"route repeats link {link_name!r}")
        seen.add(link_name)
        if current not in link.endpoints():
            raise InvalidNetworkError(f"route not contiguous at {link_name!r}")
        if network.directed and link.a != current:
            raise InvalidNetworkError(
                f"route traverses {link_name!r} against its direction"
            )
        current = link.other(current)
    if current != dst:
        raise InvalidNetworkError(f"route ends at {current!r}, expected {dst!r}")
