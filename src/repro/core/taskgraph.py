"""Stream-processing application model (Sec. III-A of the paper).

An application is a directed acyclic graph whose vertices are *computation
tasks* (CTs) and whose edges are *transport tasks* (TTs).  Each CT carries a
resource-requirement vector ``a_i^(r)`` (resources needed to process one data
unit, e.g. CPU megacycles or MB of memory per unit); each TT carries the
number of megabits ``a_i^(b)`` that must cross a link per data unit.

Source CTs (no incoming TT) model data sources such as cameras, and sink CTs
(no outgoing TT) model result consumers.  Both are typically *pinned* to a
specific NCP of the computing network and may have zero resource
requirements, exactly as footnote 1 of the paper allows.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum

from repro.exceptions import InvalidTaskGraphError

#: Canonical name of the CPU resource on NCPs.
CPU = "cpu"
#: Canonical name of the memory resource on NCPs.
MEMORY = "memory"
#: Canonical name of the bandwidth resource on links.
BANDWIDTH = "bandwidth"


class TaskRole(Enum):
    """Structural role of a computation task inside its task graph."""

    SOURCE = "source"
    COMPUTE = "compute"
    SINK = "sink"


@dataclass(frozen=True)
class ComputationTask:
    """A computation task (CT): one vertex of the application DAG.

    Parameters
    ----------
    name:
        Unique identifier within the task graph.
    requirements:
        Per-data-unit resource needs, ``{resource: amount}`` — e.g.
        ``{"cpu": 9880.0}`` for 9880 megacycles per image.  May be empty for
        pure source/sink tasks.
    pinned_host:
        NCP name this CT must be placed on (data sources and result
        consumers have predetermined hosts), or ``None`` if the scheduler is
        free to choose.
    """

    name: str
    requirements: Mapping[str, float] = field(default_factory=dict)
    pinned_host: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidTaskGraphError("a CT must have a non-empty name")
        for resource, amount in self.requirements.items():
            if not (math.isfinite(amount) and amount >= 0):
                raise InvalidTaskGraphError(
                    f"CT {self.name!r} has non-finite or negative requirement "
                    f"for {resource!r}: {amount}"
                )
        # Freeze the mapping so the dataclass is hashable and safe to share.
        object.__setattr__(self, "requirements", dict(self.requirements))

    def requirement(self, resource: str) -> float:
        """Per-unit amount of ``resource`` needed (0 when not required)."""
        return self.requirements.get(resource, 0.0)

    def __hash__(self) -> int:  # requirements dict excluded on purpose
        return hash(("CT", self.name))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComputationTask):
            return NotImplemented
        return (
            self.name == other.name
            and self.requirements == other.requirements
            and self.pinned_host == other.pinned_host
        )


@dataclass(frozen=True)
class TransportTask:
    """A transport task (TT): one edge of the application DAG.

    ``megabits_per_unit`` is ``a^(b)`` from the paper — how many megabits
    must be moved across every link hosting this TT for each data unit.
    """

    name: str
    src: str
    dst: str
    megabits_per_unit: float

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidTaskGraphError("a TT must have a non-empty name")
        if self.src == self.dst:
            raise InvalidTaskGraphError(f"TT {self.name!r} is a self-loop on {self.src!r}")
        if not (math.isfinite(self.megabits_per_unit) and self.megabits_per_unit >= 0):
            raise InvalidTaskGraphError(
                f"TT {self.name!r} has non-finite or negative size "
                f"megabits_per_unit={self.megabits_per_unit}"
            )

    def __hash__(self) -> int:
        return hash(("TT", self.name))


class TaskGraph:
    """A validated stream-processing application DAG.

    The graph is immutable after construction; all derived structure
    (reachability, per-pair TT sets) is computed eagerly and cached, because
    the assignment algorithm queries it inside its inner loop.
    """

    def __init__(
        self,
        name: str,
        cts: Iterable[ComputationTask],
        tts: Iterable[TransportTask],
    ) -> None:
        self.name = name
        self._cts: dict[str, ComputationTask] = {}
        for ct in cts:
            if ct.name in self._cts:
                raise InvalidTaskGraphError(f"duplicate CT name {ct.name!r}")
            self._cts[ct.name] = ct
        self._tts: dict[str, TransportTask] = {}
        # Insertion-ordered adjacency: CT -> {neighbour CT: connecting TT}.
        self._succ: dict[str, dict[str, TransportTask]] = {n: {} for n in self._cts}
        self._pred: dict[str, dict[str, TransportTask]] = {n: {} for n in self._cts}
        for tt in tts:
            if tt.name in self._tts:
                raise InvalidTaskGraphError(f"duplicate TT name {tt.name!r}")
            if tt.name in self._cts:
                raise InvalidTaskGraphError(f"name {tt.name!r} used by both a CT and a TT")
            for endpoint in (tt.src, tt.dst):
                if endpoint not in self._cts:
                    raise InvalidTaskGraphError(
                        f"TT {tt.name!r} references unknown CT {endpoint!r}"
                    )
            if tt.dst in self._succ[tt.src]:
                raise InvalidTaskGraphError(
                    f"parallel TTs between {tt.src!r} and {tt.dst!r} are not supported"
                )
            self._tts[tt.name] = tt
            self._succ[tt.src][tt.dst] = tt
            self._pred[tt.dst][tt.src] = tt
        if len(self._cts) == 0:
            raise InvalidTaskGraphError("a task graph needs at least one CT")
        # Kahn's algorithm, generation by generation: ``order`` doubles as
        # the FIFO queue, so it ends in the order nx.topological_sort gives.
        indegree = {n: len(pred) for n, pred in self._pred.items()}
        order = [n for n, d in indegree.items() if d == 0]
        for n in order:
            for child in self._succ[n]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    order.append(child)
        if len(order) < len(self._cts):
            raise InvalidTaskGraphError(f"task graph contains a cycle: {self._find_cycle()}")
        self._sources = tuple(n for n in order if not self._pred[n])
        self._sinks = tuple(n for n in order if not self._succ[n])
        self._descendants: dict[str, frozenset[str]] = {}
        for n in reversed(order):
            below = (self._descendants[child] for child in self._succ[n])
            self._descendants[n] = frozenset(self._succ[n]).union(*below)
        self._tts_between_cache: dict[tuple[str, str], frozenset[TransportTask]] = {}

    def _find_cycle(self) -> list[tuple[str, str]]:
        """The first directed cycle a depth-first search meets, as TT edges.

        Roots and successors are visited in insertion order, so this is the
        cycle, in the rotation, that ``networkx.find_cycle`` reports.
        """
        done: set[str] = set()
        for root in self._succ:
            if root in done:
                continue
            path = [root]
            stack = [iter(self._succ[root])]
            while stack:
                child = next(stack[-1], None)
                if child is None:
                    stack.pop()
                    done.add(path.pop())
                elif child in path:
                    cycle = path[path.index(child):] + [child]
                    return list(zip(cycle, cycle[1:]))
                elif child not in done:
                    path.append(child)
                    stack.append(iter(self._succ[child]))
        return []

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def cts(self) -> tuple[ComputationTask, ...]:
        """All computation tasks, in insertion order."""
        return tuple(self._cts.values())

    @property
    def tts(self) -> tuple[TransportTask, ...]:
        """All transport tasks, in insertion order."""
        return tuple(self._tts.values())

    @property
    def sources(self) -> tuple[str, ...]:
        """Names of CTs with no incoming TT (data sources)."""
        return self._sources

    @property
    def sinks(self) -> tuple[str, ...]:
        """Names of CTs with no outgoing TT (result consumers)."""
        return self._sinks

    def ct(self, name: str) -> ComputationTask:
        """Look up a CT by name."""
        try:
            return self._cts[name]
        except KeyError:
            raise InvalidTaskGraphError(f"no CT named {name!r} in {self.name!r}") from None

    def tt(self, name: str) -> TransportTask:
        """Look up a TT by name."""
        try:
            return self._tts[name]
        except KeyError:
            raise InvalidTaskGraphError(f"no TT named {name!r} in {self.name!r}") from None

    def has_ct(self, name: str) -> bool:
        """Whether a CT with this name exists."""
        return name in self._cts

    def role(self, ct_name: str) -> TaskRole:
        """Structural role of ``ct_name``: source, sink, or compute."""
        self.ct(ct_name)
        if ct_name in self._sources:
            return TaskRole.SOURCE
        if ct_name in self._sinks:
            return TaskRole.SINK
        return TaskRole.COMPUTE

    def topological_order(self) -> list[str]:
        """CT names in topological order, ties broken by smallest name.

        Heap-based Kahn: the order ``networkx.lexicographical_topological_sort``
        gives.
        """
        indegree = {n: len(pred) for n, pred in self._pred.items()}
        ready = [n for n, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            order.append(heapq.heappop(ready))
            for child in self._succ[order[-1]]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        return order

    # ------------------------------------------------------------------
    # Structure queries used by Algorithm 2
    # ------------------------------------------------------------------
    def neighbors(self, ct_name: str) -> list[str]:
        """CTs adjacent to ``ct_name`` in either direction."""
        self.ct(ct_name)
        return sorted(self._pred[ct_name].keys() | self._succ[ct_name].keys())

    def connecting_tt(self, a: str, b: str) -> TransportTask | None:
        """The TT directly between CTs ``a`` and ``b`` (either direction)."""
        return self._succ.get(a, {}).get(b) or self._pred.get(a, {}).get(b)

    def is_reachable(self, a: str, b: str) -> bool:
        """Whether there is a directed path ``a -> b`` or ``b -> a``."""
        return b in self._descendants[a] or a in self._descendants[b]

    def is_downstream(self, a: str, b: str) -> bool:
        """Whether data flows from ``a`` towards ``b`` (``b`` is a descendant)."""
        self.ct(a)
        self.ct(b)
        return b in self._descendants[a]

    def reachable_cts(self, ct_name: str) -> frozenset[str]:
        """All CTs connected to ``ct_name`` by a directed path (any direction).

        This is the ``nu_i`` candidate set of Algorithm 2 before intersecting
        with the already-placed set.
        """
        self.ct(ct_name)
        ancestors = {n for n, desc in self._descendants.items() if ct_name in desc}
        return frozenset(self._descendants[ct_name] | ancestors)

    def tts_between(self, a: str, b: str) -> frozenset[TransportTask]:
        """``G(i, i')``: the TTs lying on directed paths between ``a`` and ``b``.

        For neighbours this is the single connecting TT; for a reachable
        non-adjacent pair it is every TT appearing on at least one directed
        path between them.  Algorithm 2 (line 12) picks the cheapest member
        of this set when estimating the link-side bottleneck.
        """
        key = (a, b) if a <= b else (b, a)
        cached = self._tts_between_cache.get(key)
        if cached is not None:
            return cached
        if b in self._descendants[a]:
            upstream, downstream = a, b
        elif a in self._descendants[b]:
            upstream, downstream = b, a
        else:
            self._tts_between_cache[key] = frozenset()
            return frozenset()
        below = self._descendants[upstream]
        result = frozenset(
            tt
            for tt in self._tts.values()
            if (tt.src == upstream or tt.src in below)
            and (tt.dst == downstream or downstream in self._descendants[tt.dst])
        )
        self._tts_between_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def resources(self) -> frozenset[str]:
        """All NCP resource types any CT of this graph requires."""
        return frozenset(
            itertools.chain.from_iterable(ct.requirements for ct in self._cts.values())
        )

    def total_ct_requirement(self, resource: str) -> float:
        """Sum of ``resource`` requirement over all CTs (per data unit)."""
        return sum(ct.requirement(resource) for ct in self._cts.values())

    def total_tt_megabits(self) -> float:
        """Sum of TT sizes over all TTs (megabits per data unit)."""
        return sum(tt.megabits_per_unit for tt in self._tts.values())

    def scaled(self, name: str, *, ct_factor: float = 1.0, tt_factor: float = 1.0) -> "TaskGraph":
        """A copy with all CT requirements and TT sizes scaled.

        Used by workload generators to move a scenario between the
        NCP-bottleneck, link-bottleneck, and balanced regimes without
        changing the graph shape.
        """
        if ct_factor < 0 or tt_factor < 0:
            raise InvalidTaskGraphError("scale factors must be non-negative")
        cts = [
            ComputationTask(
                ct.name,
                {r: v * ct_factor for r, v in ct.requirements.items()},
                pinned_host=ct.pinned_host,
            )
            for ct in self._cts.values()
        ]
        tts = [
            TransportTask(tt.name, tt.src, tt.dst, tt.megabits_per_unit * tt_factor)
            for tt in self._tts.values()
        ]
        return TaskGraph(name, cts, tts)

    def with_pins(self, pins: Mapping[str, str], name: str | None = None) -> "TaskGraph":
        """A copy with the given CTs pinned to hosts (``{ct: ncp}``)."""
        for ct_name in pins:
            self.ct(ct_name)
        cts = [
            ComputationTask(
                ct.name,
                ct.requirements,
                pinned_host=pins.get(ct.name, ct.pinned_host),
            )
            for ct in self._cts.values()
        ]
        return TaskGraph(name or self.name, cts, self.tts)

    def __len__(self) -> int:
        return len(self._cts)

    def __repr__(self) -> str:
        return (
            f"TaskGraph({self.name!r}, |C|={len(self._cts)}, |T|={len(self._tts)}, "
            f"sources={list(self._sources)}, sinks={list(self._sinks)})"
        )


# ----------------------------------------------------------------------
# Standard task graphs from the paper
# ----------------------------------------------------------------------
def linear_task_graph(
    n_compute: int = 4,
    *,
    name: str = "linear",
    cpu_per_ct: Iterable[float] | float = 100.0,
    megabits_per_tt: Iterable[float] | float = 1.0,
    extra_requirements: Mapping[str, Iterable[float]] | None = None,
) -> TaskGraph:
    """The linear task graph of Fig. 7(a).

    ``data source -> CT_1 -> ... -> CT_n -> consumer``, with ``n_compute``
    compute CTs between a zero-cost pinned-free source and sink.  ``cpu_per_ct``
    and ``megabits_per_tt`` may be scalars (uniform) or per-task iterables.
    """
    if n_compute < 1:
        raise InvalidTaskGraphError("a linear task graph needs at least one compute CT")
    cpu = _broadcast(cpu_per_ct, n_compute, "cpu_per_ct")
    bits = _broadcast(megabits_per_tt, n_compute + 1, "megabits_per_tt")
    extras = {
        resource: _broadcast(values, n_compute, f"extra_requirements[{resource!r}]")
        for resource, values in (extra_requirements or {}).items()
    }
    cts = [ComputationTask("source", {})]
    for k in range(n_compute):
        reqs: dict[str, float] = {CPU: cpu[k]}
        for resource, values in extras.items():
            reqs[resource] = values[k]
        cts.append(ComputationTask(f"ct{k + 1}", reqs))
    cts.append(ComputationTask("sink", {}))
    names = [ct.name for ct in cts]
    tts = [
        TransportTask(f"tt{k + 1}", names[k], names[k + 1], bits[k])
        for k in range(len(names) - 1)
    ]
    return TaskGraph(name, cts, tts)


def diamond_task_graph(
    *,
    name: str = "diamond",
    cpu_per_ct: Iterable[float] | float = 100.0,
    megabits_per_tt: Iterable[float] | float = 1.0,
    extra_requirements: Mapping[str, Iterable[float]] | None = None,
) -> TaskGraph:
    """The diamond task graph of Fig. 7(b): 8 CTs and 14 TTs.

    ``CT1`` (source) fans out to the middle layer ``CT2..CT5`` (4 TTs); the
    middle layer fans in to the two aggregators ``CT6`` and ``CT7``
    (4 + 4 TTs); both aggregators feed the consumer ``CT8`` (2 TTs) — 14 TTs
    total, matching the paper's figure.
    """
    n_compute = 6  # ct2..ct7 are compute; ct1 is the source, ct8 the consumer
    cpu = _broadcast(cpu_per_ct, n_compute, "cpu_per_ct")
    bits = _broadcast(megabits_per_tt, 14, "megabits_per_tt")
    extras = {
        resource: _broadcast(values, n_compute, f"extra_requirements[{resource!r}]")
        for resource, values in (extra_requirements or {}).items()
    }

    def reqs(k: int) -> dict[str, float]:
        out: dict[str, float] = {CPU: cpu[k]}
        for resource, values in extras.items():
            out[resource] = values[k]
        return out

    cts = [ComputationTask("ct1", {})]
    cts += [ComputationTask(f"ct{k + 2}", reqs(k)) for k in range(n_compute)]
    cts.append(ComputationTask("ct8", {}))
    edges = (
        [("ct1", f"ct{m}") for m in (2, 3, 4, 5)]
        + [(f"ct{m}", "ct6") for m in (2, 3, 4, 5)]
        + [(f"ct{m}", "ct7") for m in (2, 3, 4, 5)]
        + [("ct6", "ct8"), ("ct7", "ct8")]
    )
    tts = [
        TransportTask(f"tt{k + 1}", src, dst, bits[k]) for k, (src, dst) in enumerate(edges)
    ]
    return TaskGraph(name, cts, tts)


def diamond_chain_task_graph(
    n_diamonds: int = 4,
    *,
    name: str = "diamond-chain",
    cpu_per_ct: Iterable[float] | float = 100.0,
    megabits_per_tt: Iterable[float] | float = 1.0,
) -> TaskGraph:
    """A chain of ``n_diamonds`` fork/join diamonds between source and sink.

    Each diamond ``k`` forks the previous stage into two parallel compute CTs
    (``fork{k}a``/``fork{k}b``) that rejoin at ``join{k}``; ``join{k}`` feeds
    the next diamond, and the last one feeds the sink.  The result is a deep
    graph with ``3 * n_diamonds`` compute CTs and ``4 * n_diamonds + 1`` TTs
    — the "deep pipeline" shape used by the dense scalability benchmarks.
    """
    if n_diamonds < 1:
        raise InvalidTaskGraphError("a diamond chain needs at least one diamond")
    n_compute = 3 * n_diamonds
    cpu = _broadcast(cpu_per_ct, n_compute, "cpu_per_ct")
    bits = _broadcast(megabits_per_tt, 4 * n_diamonds + 1, "megabits_per_tt")
    cts = [ComputationTask("source", {})]
    tts: list[TransportTask] = []
    prev = "source"
    for k in range(1, n_diamonds + 1):
        fork_a, fork_b, join = f"fork{k}a", f"fork{k}b", f"join{k}"
        base = 3 * (k - 1)
        cts.append(ComputationTask(fork_a, {CPU: cpu[base]}))
        cts.append(ComputationTask(fork_b, {CPU: cpu[base + 1]}))
        cts.append(ComputationTask(join, {CPU: cpu[base + 2]}))
        edge_base = 4 * (k - 1)
        tts.append(TransportTask(f"tt{edge_base + 1}", prev, fork_a, bits[edge_base]))
        tts.append(TransportTask(f"tt{edge_base + 2}", prev, fork_b, bits[edge_base + 1]))
        tts.append(TransportTask(f"tt{edge_base + 3}", fork_a, join, bits[edge_base + 2]))
        tts.append(TransportTask(f"tt{edge_base + 4}", fork_b, join, bits[edge_base + 3]))
        prev = join
    cts.append(ComputationTask("sink", {}))
    tts.append(TransportTask(f"tt{4 * n_diamonds + 1}", prev, "sink", bits[-1]))
    return TaskGraph(name, cts, tts)


def multi_camera_task_graph(*, name: str = "multi-camera") -> TaskGraph:
    """The Fig. 1 example: two camera sources, detection, classification.

    ``CT1``/``CT2`` are cameras, ``CT3`` detects objects from both views,
    ``CT4`` classifies each object, ``CT5`` consumes the results.  The
    requirement values are illustrative (the paper gives none for Fig. 1).
    """
    cts = [
        ComputationTask("camera1", {}),
        ComputationTask("camera2", {}),
        ComputationTask("detect", {CPU: 8000.0}),
        ComputationTask("classify", {CPU: 5000.0}),
        ComputationTask("consumer", {}),
    ]
    tts = [
        TransportTask("tt1", "camera1", "detect", 24.8),
        TransportTask("tt2", "camera2", "detect", 24.8),
        TransportTask("tt3", "detect", "classify", 1.5),
        TransportTask("tt4", "classify", "consumer", 0.09),
    ]
    return TaskGraph(name, cts, tts)


def _broadcast(value: Iterable[float] | float, count: int, label: str) -> list[float]:
    """Expand a scalar to ``count`` copies, or validate an iterable's length."""
    if isinstance(value, (int, float)):
        return [float(value)] * count
    values = [float(v) for v in value]
    if len(values) != count:
        raise InvalidTaskGraphError(f"{label} must have {count} entries, got {len(values)}")
    return values
