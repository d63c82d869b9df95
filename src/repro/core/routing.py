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

The search runs on the CSR-compiled kernel of :mod:`repro.core.arrays`:
link weights for the whole network are evaluated in one vectorized pass
and the relaxation loop runs over int arrays.  Every network, however
small, routes on it.  The original dict-of-dicts search survives only as
the test oracle in ``tests/routing_oracles.py``; the property and golden
suites check this kernel against it bit for bit (widths, predecessors,
tiebreaks).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core import arrays
from repro.core.network import Network
from repro.core.placement import CapacityView
from repro.exceptions import InvalidNetworkError
from repro.perf import counters


@dataclass(frozen=True)
class RouteResult:
    """A routed path and the rate bottleneck its links impose.

    ``links`` is ordered from source to destination; ``bottleneck`` is the
    max-min weight (``inf`` for the trivial same-node path).
    """

    links: tuple[str, ...]
    bottleneck: float


#: Caller-owned memo for Eq.-(3) weight arrays, keyed by
#: ``(CapacityView.version, tt_megabits)``.  The caller owns the link-load
#: state, so it also owns the cache's validity: pass the same dict across
#: queries made under one load state and *clear it whenever the loads
#: mutate* (capacity mutations are keyed out automatically via the view
#: version).
WeightsCache = dict[tuple[int, float], "arrays.FloatArray"]


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
    but wider paths always win over it.  The relaxation early-exits once
    ``dst`` settles.
    """
    return _point_search(
        network, capacities, src, dst, tt_megabits, link_loads, weights_cache, None
    )


def _point_search(
    network: Network,
    capacities: CapacityView,
    src: str,
    dst: str,
    tt_megabits: float,
    link_loads: Mapping[str, float] | None,
    weights_cache: WeightsCache | None,
    floor: float | None,
) -> RouteResult | None:
    """:func:`widest_path`, or with ``floor`` its search over wide paths only.

    ``floor`` is ``None`` or the width of ``P*(src, dst)`` itself — the
    all-pairs table cell (:func:`repro.core.arrays.all_pairs_widths`) for
    the same weights, never a caller's threshold.  The search then keeps
    only candidates at least ``floor`` wide
    (:func:`repro.core.arrays.run_widest_floored`) and returns the same
    route; an assertion checks that ``dst`` settles at exactly ``floor``.
    """
    network.ncp(src)
    network.ncp(dst)
    counters.incr("routing.widest_path")
    if src == dst:
        return RouteResult((), math.inf)
    compiled = arrays.compile_network(network)
    weights = cached_link_weights(
        compiled, capacities, tt_megabits, link_loads or {}, weights_cache
    )
    src_idx = compiled.node_index[src]
    dst_idx = compiled.node_index[dst]
    if floor is None:
        widths, prev_node, prev_link = arrays.run_widest(
            compiled, weights, src_idx, dst=dst_idx
        )
    else:
        widths, prev_node, prev_link = arrays.run_widest_floored(
            compiled, weights, src_idx, dst_idx, floor
        )
        assert widths[dst_idx] == floor, (widths[dst_idx], floor)
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
    counters.incr("routing.widest_path_tree")
    compiled = arrays.compile_network(network)
    weights = cached_link_weights(
        compiled, capacities, tt_megabits, link_loads or {}, weights_cache
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
