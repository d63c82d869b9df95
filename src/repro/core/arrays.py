"""Array-compiled network kernels for Algorithm 1 (widest path).

``repro.core.network`` models the dispersed computing network as dicts of
named :class:`~repro.core.network.NCP`/:class:`~repro.core.network.Link`
objects — ideal for validation and bookkeeping, but a widest-path
relaxation over them pays string hashing, attribute chasing, and a
per-edge weight evaluation.  This module compiles the (immutable)
topology once into flat int-indexed arrays, and is the one Algorithm-1
implementation :mod:`repro.core.routing` runs:

1. :func:`compile_network` — a cached :class:`CompiledNetwork` holding a
   CSR adjacency (``offsets``/``targets``/``link_ids``) per direction,
   plus the raw link bandwidths, all as frozen ``numpy`` arrays;
2. :func:`link_residuals` — the residual bandwidth of every link under a
   :class:`~repro.core.placement.CapacityView`, produced in O(overrides)
   and memoized against the view's mutation version;
3. :func:`link_weights` — the Eq. (3) weight of *every* link for a given
   ``tt_megabits`` + same-path loads, in one vectorized pass;
4. :func:`run_widest` — the modified-Dijkstra relaxation over int arrays
   (one source; yields the route as well as its width);
5. :func:`all_pairs_widths` — the width of ``P*(u, v)`` for *every* NCP
   pair at once, by the (max, min) closure of the weight matrix.  Algorithm
   2's Eq.-(2) probes only need widths, so they read this table instead of
   searching;
6. :func:`run_widest_floored` — the point relaxation when that table
   already gives the destination's width: it drops every candidate
   narrower than that width and settles the same route.  Algorithm 2 routes its
   commits through it whenever the table is current.

The relaxation loop is pure Python over list mirrors of the CSR arrays.
Its tiebreaks are those of a name-keyed Dijkstra: node ties break on the
lexicographic rank of the NCP name (``tie_rank``), and per-node edge
order is the sorted-by-link-name order of ``Network.forward_links`` /
``backward_links``.  The dict-of-dicts oracle in
``tests/routing_oracles.py`` checks it bit for bit.
"""

from __future__ import annotations

import heapq
import math
import weakref
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.network import Network
from repro.core.placement import CapacityView
from repro.core.taskgraph import BANDWIDTH
from repro.perf import counters

FloatArray = np.ndarray[Any, np.dtype[np.float64]]
IntArray = np.ndarray[Any, np.dtype[np.int64]]

_NEG_INF = float("-inf")


# ----------------------------------------------------------------------
# CSR compilation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompiledNetwork:
    """An immutable CSR view of one :class:`~repro.core.network.Network`.

    Nodes and links are int-indexed in network insertion order;
    ``node_names[i]`` / ``link_names[i]`` translate back.  The CSR edge
    order within each node replicates ``Network.forward_links`` /
    ``backward_links`` (sorted by link name), and ``tie_rank[i]`` is the
    lexicographic rank of node ``i``'s name — together these fix the
    relaxation's Dijkstra tiebreaks to those of a name-keyed search.
    Every ``numpy`` array is frozen (``writeable=False``); the ``*_list``
    twins are private mirrors for the pure-Python loop (CPython list
    indexing is ~3x faster than scalar ndarray access).

    Undirected networks share one adjacency: the ``bwd_*`` fields alias
    the ``fwd_*`` arrays.  ``fwd_pairs[e]`` is forward edge ``e``'s
    ordered pair ``(u, v)`` as the flat index ``u * n_nodes + v``;
    ``Network`` refuses parallel links, so no two edges share one.
    """

    network_name: str
    directed: bool
    node_names: tuple[str, ...]
    link_names: tuple[str, ...]
    node_index: Mapping[str, int]
    link_index: Mapping[str, int]
    tie_rank: IntArray
    base_bandwidth: FloatArray
    fwd_offsets: IntArray
    fwd_targets: IntArray
    fwd_link_ids: IntArray
    bwd_offsets: IntArray
    bwd_targets: IntArray
    bwd_link_ids: IntArray
    fwd_pairs: IntArray
    # Pure-Python mirrors (lists) of the arrays above, same contents.
    _tie_rank_list: list[int] = field(repr=False)
    _fwd_offsets_list: list[int] = field(repr=False)
    _fwd_targets_list: list[int] = field(repr=False)
    _fwd_link_ids_list: list[int] = field(repr=False)
    _bwd_offsets_list: list[int] = field(repr=False)
    _bwd_targets_list: list[int] = field(repr=False)
    _bwd_link_ids_list: list[int] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_links(self) -> int:
        return len(self.link_names)


def _freeze(array: np.ndarray[Any, np.dtype[Any]]) -> np.ndarray[Any, np.dtype[Any]]:
    array.setflags(write=False)
    return array


def _csr(
    network: Network,
    node_index: Mapping[str, int],
    link_index: Mapping[str, int],
    *,
    reverse: bool,
) -> tuple[IntArray, IntArray, IntArray]:
    """CSR arrays in ``forward_links`` (``backward_links``) edge order."""
    offsets = [0]
    targets: list[int] = []
    link_ids: list[int] = []
    expand = network.backward_links if reverse else network.forward_links
    for name in network.ncp_names:
        for link in expand(name):
            targets.append(node_index[link.other(name)])
            link_ids.append(link_index[link.name])
        offsets.append(len(targets))
    return (
        _freeze(np.asarray(offsets, dtype=np.int64)),
        _freeze(np.asarray(targets, dtype=np.int64)),
        _freeze(np.asarray(link_ids, dtype=np.int64)),
    )


_compile_cache: "weakref.WeakKeyDictionary[Network, CompiledNetwork]" = (
    weakref.WeakKeyDictionary()
)


def compile_network(network: Network) -> CompiledNetwork:
    """Compile (and cache) a network's topology into CSR arrays.

    The topology is immutable, so the compilation is performed once per
    :class:`~repro.core.network.Network` instance and memoized in a weak
    cache — repeated calls are a dict probe
    (``arrays.compile_hit``/``arrays.compile_miss`` count the traffic).
    """
    cached = _compile_cache.get(network)
    if cached is not None:
        counters.incr("arrays.compile_hit")
        return cached
    counters.incr("arrays.compile_miss")
    node_names = network.ncp_names
    link_names = network.link_names
    node_index = {name: i for i, name in enumerate(node_names)}
    link_index = {name: i for i, name in enumerate(link_names)}
    rank_of = {name: r for r, name in enumerate(sorted(node_names))}
    tie_rank = _freeze(
        np.asarray([rank_of[name] for name in node_names], dtype=np.int64)
    )
    base_bandwidth = _freeze(
        np.asarray(
            [network.link(name).bandwidth for name in link_names], dtype=np.float64
        )
    )
    fwd = _csr(network, node_index, link_index, reverse=False)
    bwd = fwd if not network.directed else _csr(
        network, node_index, link_index, reverse=True
    )
    sources = np.repeat(np.arange(len(node_names)), np.diff(fwd[0]))
    compiled = CompiledNetwork(
        network_name=network.name,
        directed=network.directed,
        node_names=node_names,
        link_names=link_names,
        node_index=node_index,
        link_index=link_index,
        tie_rank=tie_rank,
        base_bandwidth=base_bandwidth,
        fwd_offsets=fwd[0],
        fwd_targets=fwd[1],
        fwd_link_ids=fwd[2],
        bwd_offsets=bwd[0],
        bwd_targets=bwd[1],
        bwd_link_ids=bwd[2],
        fwd_pairs=_freeze(sources * len(node_names) + fwd[1]),
        _tie_rank_list=tie_rank.tolist(),
        _fwd_offsets_list=fwd[0].tolist(),
        _fwd_targets_list=fwd[1].tolist(),
        _fwd_link_ids_list=fwd[2].tolist(),
        _bwd_offsets_list=bwd[0].tolist(),
        _bwd_targets_list=bwd[1].tolist(),
        _bwd_link_ids_list=bwd[2].tolist(),
    )
    _compile_cache[network] = compiled
    return compiled


# ----------------------------------------------------------------------
# Residual-capacity arrays
# ----------------------------------------------------------------------
_residual_cache: (
    "weakref.WeakKeyDictionary[CapacityView, tuple[int, FloatArray]]"
) = weakref.WeakKeyDictionary()


def link_residuals(compiled: CompiledNetwork, capacities: CapacityView) -> FloatArray:
    """Residual bandwidth of every link under ``capacities``, by link id.

    Starts from the compiled raw bandwidths and applies only the view's
    bandwidth overrides — O(overrides), not O(links x probes).  The
    result is frozen and memoized against the view's
    :attr:`~repro.core.placement.CapacityView.version`, so the unmutated
    steady state (every probe between two commits) costs one dict probe.
    """
    cached = _residual_cache.get(capacities)
    version = capacities.version
    if cached is not None and cached[0] == version:
        return cached[1]
    residual = compiled.base_bandwidth.copy()
    link_index = compiled.link_index
    for element, resource, value in capacities.iter_overrides():
        if resource != BANDWIDTH:
            continue
        idx = link_index.get(element)
        if idx is not None:
            residual[idx] = value
    _freeze(residual)
    _residual_cache[capacities] = (version, residual)
    return residual


def link_weights(
    compiled: CompiledNetwork,
    residual: FloatArray,
    tt_megabits: float,
    link_loads: Mapping[str, float] | None = None,
) -> FloatArray:
    """Eq. (3) link weights for *all* links in one vectorized pass.

    ``weights[l] = residual[l] / (tt_megabits + link_loads[l])``, with
    ``inf`` where the denominator is non-positive.  The division is
    IEEE-754 float64, so every weight is bit-identical to the scalar
    per-link evaluation (``tests/routing_oracles.link_weight``).
    """
    # Python float division overflows to inf silently; numpy emits a
    # RuntimeWarning for the same IEEE result — silence it so the
    # vectorized pass matches scalar division under -W error.
    if not link_loads:
        if tt_megabits > 0.0:
            with np.errstate(over="ignore"):
                return residual / tt_megabits
        return np.full(compiled.n_links, math.inf, dtype=np.float64)
    denominator = np.full(compiled.n_links, tt_megabits, dtype=np.float64)
    link_index = compiled.link_index
    for name, load in link_loads.items():
        idx = link_index.get(name)
        if idx is not None:
            denominator[idx] = tt_megabits + load
    weights = np.full(compiled.n_links, math.inf, dtype=np.float64)
    with np.errstate(over="ignore"):
        np.divide(residual, denominator, out=weights, where=denominator > 0.0)
    return weights


# ----------------------------------------------------------------------
# Relaxation
# ----------------------------------------------------------------------
def _relax_python(
    offsets: Sequence[int],
    targets: Sequence[int],
    link_ids: Sequence[int],
    edge_weights: Sequence[float],
    tie_rank: Sequence[int],
    n_nodes: int,
    root: int,
    dst: int,
    unreached: float = _NEG_INF,
) -> tuple[list[float], list[int], list[int]]:
    """The modified-Dijkstra relaxation over CSR lists (pure Python).

    ``edge_weights`` is indexed by CSR *edge* position (the link weights
    pre-gathered through ``link_ids``), so the inner loop touches no
    link-indexed table.  ``dst >= 0`` enables the point-query early exit
    (stop once ``dst`` is settled); ``dst = -1`` runs to exhaustion (the
    tree mode).  Heap entries are ``(-width, tie_rank, node)`` so ties
    pop in lexicographic node-name order.  Every node but the root starts
    at width ``unreached``; only a candidate above it is written and
    pushed.
    """
    widths = [unreached] * n_nodes
    prev_node = [-1] * n_nodes
    prev_link = [-1] * n_nodes
    visited = bytearray(n_nodes)
    widths[root] = math.inf
    heap: list[tuple[float, int, int]] = [(_NEG_INF, tie_rank[root], root)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        negwidth, _, node = pop(heap)
        if visited[node]:
            continue
        visited[node] = 1
        if node == dst:
            break
        width = -negwidth
        start = offsets[node]
        end = offsets[node + 1]
        for neighbor, w, lid in zip(
            targets[start:end], edge_weights[start:end], link_ids[start:end]
        ):
            if visited[neighbor]:
                continue
            candidate = width if width < w else w
            if candidate > widths[neighbor]:
                widths[neighbor] = candidate
                prev_node[neighbor] = node
                prev_link[neighbor] = lid
                push(heap, (-candidate, tie_rank[neighbor], neighbor))
    return widths, prev_node, prev_link


# One memo slot per direction for the edge-ordered weight gather of the
# pure-Python body: ``(compiled, weights, edge_weights_list)``.  Weight
# arrays are memoized upstream (routing.WeightsCache), so consecutive
# relaxations under one load state pass the *same* array object and the
# gather — one vectorized fancy-index + tolist — runs once per state, not
# once per search.  Identity-checked, so a fresh array just recomputes.
_gather_slots: list[tuple[CompiledNetwork, FloatArray, list[float]] | None] = [
    None,
    None,
]


def _edge_weights_list(
    compiled: CompiledNetwork, weights: FloatArray, reverse: bool
) -> list[float]:
    slot = _gather_slots[1 if reverse else 0]
    if slot is not None and slot[0] is compiled and slot[1] is weights:
        return slot[2]
    link_ids = compiled.bwd_link_ids if reverse else compiled.fwd_link_ids
    gathered: list[float] = weights[link_ids].tolist()
    _gather_slots[1 if reverse else 0] = (compiled, weights, gathered)
    return gathered


def run_widest(
    compiled: CompiledNetwork,
    weights: FloatArray,
    root: int,
    *,
    reverse: bool = False,
    dst: int = -1,
) -> tuple[list[float], list[int], list[int]]:
    """Run the widest-path relaxation from node ``root`` over ``weights``.

    Returns ``(widths, prev_node, prev_link)`` as plain lists indexed by
    node id: ``widths[i] == -inf`` marks an unreached node,
    ``prev_*[i] == -1`` marks the root or an unreached node.
    ``reverse=True`` traverses the backward adjacency (paths *into* the
    root); ``dst >= 0`` early-exits once that node settles (point
    queries).
    """
    if reverse:
        offsets = compiled._bwd_offsets_list
        targets = compiled._bwd_targets_list
        link_ids = compiled._bwd_link_ids_list
    else:
        offsets = compiled._fwd_offsets_list
        targets = compiled._fwd_targets_list
        link_ids = compiled._fwd_link_ids_list
    return _relax_python(
        offsets, targets, link_ids,
        _edge_weights_list(compiled, weights, reverse),
        compiled._tie_rank_list, compiled.n_nodes, root, dst,
    )


def run_widest_floored(
    compiled: CompiledNetwork,
    weights: FloatArray,
    root: int,
    dst: int,
    floor: float,
) -> tuple[list[float], list[int], list[int]]:
    """``run_widest(compiled, weights, root, dst=dst)`` given ``dst``'s width.

    ``floor`` is the width of ``P*(root, dst)`` (an :func:`all_pairs_widths`
    cell for ``weights``).  Every node starts at the largest float below
    ``floor`` instead of ``-inf``, so a candidate narrower than the floor
    is never written or pushed, and the search settles the same widths and
    predecessors up to ``dst``: every node that pops no later than ``dst``
    has width ``>= floor`` and is fixed by a candidate at least that wide,
    while under strict improvement any such candidate would have
    overwritten a narrower one.  Nodes left unreached read that start
    value rather than ``-inf``.
    """
    return _relax_python(
        compiled._fwd_offsets_list, compiled._fwd_targets_list,
        compiled._fwd_link_ids_list, _edge_weights_list(compiled, weights, False),
        compiled._tie_rank_list, compiled.n_nodes, root, dst,
        unreached=math.nextafter(floor, -math.inf),
    )


def all_pairs_widths(compiled: CompiledNetwork, weights: FloatArray) -> FloatArray:
    """``table[u, v]`` = bottleneck width of ``P*(u, v)`` for every NCP pair.

    The (max, min) closure of the Eq.-(3) weight matrix: seed ``table``
    with each ordered pair's direct link (a directed network's forward
    CSR holds one edge per link, an undirected one's two; ``Network``
    refuses parallel links, so one assignment through
    ``CompiledNetwork.fwd_pairs`` writes every seed), then let every node
    ``k`` in turn offer the detour ``min(table[u, k], table[k, v])``.
    The max-min value of a pair is unique and only comparisons touch the
    floats, so each entry equals the width :func:`run_widest` settles, bit
    for bit: row ``u`` is the forward tree rooted at ``u``, column ``v``
    the ``reverse=True`` tree rooted at ``v``.  The diagonal is ``+inf``
    (the trivial path) and unreachable pairs stay ``-inf``.

    O(N^3) in N vectorized passes — about the cost of *one* tree search at
    48 NCPs, answering all roots — which holds up to the ~100-NCP networks
    this repo builds; a far larger sparse network would want the per-root
    searches back.
    """
    n = compiled.n_nodes
    table = np.full((n, n), _NEG_INF, dtype=np.float64)
    table.ravel()[compiled.fwd_pairs] = weights[compiled.fwd_link_ids]
    np.fill_diagonal(table, math.inf)
    detour = np.empty_like(table)
    for k in range(n):
        np.minimum(table[:, k, None], table[None, k, :], out=detour)
        np.maximum(table, detour, out=table)
    return table
