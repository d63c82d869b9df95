"""Reference forms of Algorithm 1 that the routing tests compare against.

The original dict-of-dicts modified Dijkstra: per-edge scalar Eq. (3)
weights, a heap keyed on ``(-width, NCP name)`` and a strict-improvement
relaxation.  Deliberately straight-line, and sharing no search code with
:mod:`repro.core.routing` / :mod:`repro.core.arrays`, so that the CSR
kernel in ``src/`` is checked against an independent implementation.

The functions mirror the signatures of :func:`repro.core.routing.
widest_path` / :func:`~repro.core.routing.widest_path_tree`;
:func:`widest_path_dict` accepts and ignores ``weights_cache`` so it can
stand in for the kernel where Algorithm 2 calls it; :func:`dict_point_queries`
swaps it in for *every* point query Algorithm 2 makes, floored commit
routes included.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from unittest import mock

from repro.core import assignment
from repro.core.network import Network
from repro.core.placement import CapacityView
from repro.core.routing import RouteResult, WidestPathTree
from repro.core.taskgraph import BANDWIDTH


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
    denominator = tt_megabits + link_loads.get(link_name, 0.0)
    if denominator <= 0.0:
        return math.inf
    return capacities.capacity(link_name, BANDWIDTH) / denominator


def _search(
    network: Network,
    capacities: CapacityView,
    root: str,
    tt_megabits: float,
    loads: Mapping[str, float],
    *,
    reverse: bool,
    dst: str | None,
) -> tuple[dict[str, float], dict[str, tuple[str, str]]]:
    """Modified Dijkstra from ``root``; stops once ``dst`` settles."""
    expand = network.backward_links if reverse else network.forward_links
    # phi[v]: best known bottleneck from root to v (Algorithm 1's phi).
    phi: dict[str, float] = {root: math.inf}
    prev: dict[str, tuple[str, str]] = {}  # v -> (previous NCP, link used)
    visited: set[str] = set()
    # Max-heap via negated keys; the node name is the deterministic tiebreak.
    heap: list[tuple[float, str]] = [(-math.inf, root)]
    while heap:
        negwidth, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == dst:
            break
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
    return phi, prev


def widest_path_dict(
    network: Network,
    capacities: CapacityView,
    src: str,
    dst: str,
    tt_megabits: float,
    link_loads: Mapping[str, float] | None = None,
    *,
    weights_cache: object = None,
) -> RouteResult | None:
    """The dict-of-dicts Algorithm-1 point search."""
    network.ncp(src)
    network.ncp(dst)
    if src == dst:
        return RouteResult((), math.inf)
    phi, prev = _search(
        network, capacities, src, tt_megabits, link_loads or {},
        reverse=False, dst=dst,
    )
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


def widest_path_tree_dict(
    network: Network,
    capacities: CapacityView,
    root: str,
    tt_megabits: float,
    link_loads: Mapping[str, float] | None = None,
    *,
    reverse: bool = False,
) -> WidestPathTree:
    """The dict-of-dicts single-source tree (run to exhaustion)."""
    network.ncp(root)
    phi, prev = _search(
        network, capacities, root, tt_megabits, link_loads or {},
        reverse=reverse, dst=None,
    )
    return WidestPathTree(root, tt_megabits, reverse, phi, prev)


def point_search_dict(
    network: Network,
    capacities: CapacityView,
    src: str,
    dst: str,
    tt_megabits: float,
    link_loads: Mapping[str, float] | None,
    weights_cache: object,
    floor: float | None,
) -> RouteResult | None:
    """:func:`widest_path_dict` in the shape of ``routing._point_search``.

    The floor is ignored: the full dict search must find the same route
    the floored CSR search does.
    """
    return widest_path_dict(network, capacities, src, dst, tt_megabits, link_loads)


@contextmanager
def dict_point_queries() -> Iterator[None]:
    """Route every Algorithm-2 point query on the dict oracle.

    ``repro.core.assignment`` reaches Algorithm 1 through two names:
    ``widest_path`` (tie-break simulations, routes with no current width
    table) and ``_point_search`` (commit routes floored at their table
    width).  Both are replaced, so no point query runs on the CSR kernel.
    """
    with mock.patch.object(assignment, "widest_path", widest_path_dict), \
            mock.patch.object(assignment, "_point_search", point_search_dict):
        yield
