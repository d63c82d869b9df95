"""``TaskGraph`` and ``Network`` adjacency checked against networkx.

Both classes keep their own insertion-ordered successor/predecessor dicts.
These properties rebuild every random input as an ``nx.DiGraph`` /
``nx.Graph`` and require the same answers — orders included — and, for
rejected inputs, the same error class and message.  Inputs are random
DAGs whose topological order differs from their insertion order, plus
back edges (cycles), parallel edges, unknown endpoints and name clashes.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import NCP, Link, Network
from repro.core.taskgraph import ComputationTask, TaskGraph, TransportTask
from repro.exceptions import InvalidNetworkError, InvalidTaskGraphError

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Node labels; insertion order is a random permutation of these, so the
#: lexicographic, generation and insertion orders all differ.
LABELS = tuple(f"v{k}" for k in range(9))
UNKNOWN = "zz"
DEFECTS = ("none", "none", "none", "cycle", "cycle", "duplicate-node",
           "duplicate-edge-name", "edge-named-like-node", "unknown-endpoint",
           "parallel", "empty")


def _outcome(build):
    """The built object, or ``(error class, message)`` if it is rejected."""
    try:
        return build()
    except (InvalidTaskGraphError, InvalidNetworkError) as error:
        return type(error), str(error)


@st.composite
def graph_specs(draw):
    """``(node names, [(edge name, src, dst)])`` with an optional defect.

    Edges follow a hidden random rank, so the graph is a DAG unless a
    back edge is drawn; at most one deliberate defect is injected.  The
    ``cycle`` defect walks forward from an edge and closes the walk.
    """
    n = draw(st.integers(min_value=1, max_value=len(LABELS)))
    names = list(draw(st.permutations(LABELS))[:n])
    rank = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    edges: list[tuple[str, str, str]] = []
    seen: set[tuple[int, int]] = set()
    for i, j in pairs:
        if i == j:
            continue
        u, v = (i, j) if rank[i] < rank[j] else (j, i)
        if (u, v) not in seen:
            seen.add((u, v))
            edges.append((f"e{len(edges)}", names[u], names[v]))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2)):
        if i != j and rank[i] > rank[j] and (i, j) not in seen:
            seen.add((i, j))
            edges.append((f"e{len(edges)}", names[i], names[j]))  # back edge
    edges = draw(st.permutations(edges))
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "duplicate-node":
        names.insert(draw(st.integers(0, n)), draw(st.sampled_from(names)))
    elif defect == "empty":
        names, edges = [], []
    elif defect == "unknown-endpoint":
        edges.append(("ex", names[0], UNKNOWN))
    elif edges and defect == "duplicate-edge-name":
        edges.append((edges[0][0], names[0], names[-1]))
    elif edges and defect == "edge-named-like-node":
        edges.append((names[0], edges[0][1], edges[0][2]))
    elif edges and defect == "cycle":
        _, head, node = draw(st.sampled_from(edges))
        while draw(st.booleans()):
            onward = [dst for _, src, dst in edges if src == node and dst != head]
            if not onward:
                break
            node = draw(st.sampled_from(onward))
        edges.append(("ec", node, head))
    elif edges and defect == "parallel":
        _, a, b = draw(st.sampled_from(edges))
        flip = draw(st.booleans())
        edges.append(("ep", b if flip else a, a if flip else b))
    return names, edges


# ----------------------------------------------------------------------
# TaskGraph
# ----------------------------------------------------------------------
def nx_task_graph(names, edges) -> nx.DiGraph:
    """Validate like ``TaskGraph`` does, building an ``nx.DiGraph``."""
    for k, name in enumerate(names):
        if name in names[:k]:
            raise InvalidTaskGraphError(f"duplicate CT name {name!r}")
    graph = nx.DiGraph()
    graph.add_nodes_from(names)
    tt_names: set[str] = set()
    for tt_name, src, dst in edges:
        if tt_name in tt_names:
            raise InvalidTaskGraphError(f"duplicate TT name {tt_name!r}")
        if tt_name in graph:
            raise InvalidTaskGraphError(f"name {tt_name!r} used by both a CT and a TT")
        for endpoint in (src, dst):
            if endpoint not in graph:
                raise InvalidTaskGraphError(
                    f"TT {tt_name!r} references unknown CT {endpoint!r}"
                )
        if graph.has_edge(src, dst):
            raise InvalidTaskGraphError(
                f"parallel TTs between {src!r} and {dst!r} are not supported"
            )
        tt_names.add(tt_name)
        graph.add_edge(src, dst, tt=tt_name)
    if not names:
        raise InvalidTaskGraphError("a task graph needs at least one CT")
    if not nx.is_directed_acyclic_graph(graph):
        raise InvalidTaskGraphError(
            f"task graph contains a cycle: {nx.find_cycle(graph)}"
        )
    return graph


def _tts_between(graph: nx.DiGraph, a: str, b: str) -> frozenset[str]:
    if nx.has_path(graph, a, b):
        up, down = a, b
    elif nx.has_path(graph, b, a):
        up, down = b, a
    else:
        return frozenset()
    below, above = nx.descendants(graph, up) | {up}, nx.ancestors(graph, down) | {down}
    return frozenset(
        data["tt"] for u, v, data in graph.edges(data=True) if u in below and v in above
    )


class TestTaskGraphAgainstNetworkx:
    @SETTINGS
    @given(spec=graph_specs())
    def test_same_answers_or_same_rejection(self, spec):
        names, edges = spec
        cts = [ComputationTask(name) for name in names]
        tts = [TransportTask(name, src, dst, 1.0) for name, src, dst in edges]
        ours = _outcome(lambda: TaskGraph("g", cts, tts))
        oracle = _outcome(lambda: nx_task_graph(names, edges))
        if isinstance(oracle, tuple):
            assert ours == oracle
            return
        assert isinstance(ours, TaskGraph)
        order = list(nx.topological_sort(oracle))
        assert ours.sources == tuple(n for n in order if oracle.in_degree(n) == 0)
        assert ours.sinks == tuple(n for n in order if oracle.out_degree(n) == 0)
        assert ours.topological_order() == list(
            nx.lexicographical_topological_sort(oracle)
        )
        for a in names:
            assert ours.neighbors(a) == sorted(
                set(oracle.predecessors(a)) | set(oracle.successors(a))
            )
            assert ours.reachable_cts(a) == frozenset(
                nx.descendants(oracle, a) | nx.ancestors(oracle, a)
            )
            for b in names:
                down = b in nx.descendants(oracle, a)
                assert ours.is_downstream(a, b) == down
                assert ours.is_reachable(a, b) == (down or a in nx.descendants(oracle, b))
                assert {tt.name for tt in ours.tts_between(a, b)} == _tts_between(
                    oracle, a, b
                )
        for a in (*names, UNKNOWN):
            for b in (*names, UNKNOWN):
                tt = ours.connecting_tt(a, b)
                expected = (
                    oracle.edges[a, b]["tt"] if oracle.has_edge(a, b)
                    else oracle.edges[b, a]["tt"] if oracle.has_edge(b, a)
                    else None
                )
                assert (tt.name if tt is not None else None) == expected


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------
def nx_network(names, edges, directed: bool) -> nx.Graph:
    """Validate like ``Network`` does, building an ``nx.Graph``/``DiGraph``."""
    for k, name in enumerate(names):
        if name in names[:k]:
            raise InvalidNetworkError(f"duplicate NCP name {name!r}")
    graph = nx.DiGraph() if directed else nx.Graph()
    graph.add_nodes_from(names)
    link_names: set[str] = set()
    for link_name, a, b in edges:
        if link_name in link_names:
            raise InvalidNetworkError(f"duplicate link name {link_name!r}")
        if link_name in graph:
            raise InvalidNetworkError(f"name {link_name!r} used by both an NCP and a link")
        for endpoint in (a, b):
            if endpoint not in graph:
                raise InvalidNetworkError(
                    f"link {link_name!r} references unknown NCP {endpoint!r}"
                )
        if graph.has_edge(a, b):
            direction = "from" if directed else "between"
            raise InvalidNetworkError(
                f"parallel links {direction} {a!r} "
                f"{'to' if directed else 'and'} {b!r} are not supported"
            )
        link_names.add(link_name)
        graph.add_edge(a, b, link=link_name)
    if not names:
        raise InvalidNetworkError("a network needs at least one NCP")
    return graph


def _sorted_names(link_names) -> tuple[str, ...]:
    return tuple(sorted(link_names))


class TestNetworkAgainstNetworkx:
    @SETTINGS
    @given(spec=graph_specs(), directed=st.booleans())
    def test_same_answers_or_same_rejection(self, spec, directed):
        names, edges = spec
        ncps = [NCP(name) for name in names]
        links = [Link(name, a, b, 1.0) for name, a, b in edges]
        ours = _outcome(lambda: Network("n", ncps, links, directed=directed))
        oracle = _outcome(lambda: nx_network(names, edges, directed))
        if isinstance(oracle, tuple):
            assert ours == oracle
            return
        assert isinstance(ours, Network)
        assert ours.is_connected() == (
            nx.is_weakly_connected(oracle) if directed else nx.is_connected(oracle)
        )
        for a in names:
            if directed:
                out_edges = oracle.out_edges(a, data="link")
                in_edges = oracle.in_edges(a, data="link")
                adjacent = set(oracle.successors(a)) | set(oracle.predecessors(a))
            else:
                out_edges = in_edges = oracle.edges(a, data="link")
                adjacent = set(oracle.neighbors(a))
            forward = _sorted_names(name for _, _, name in out_edges)
            backward = _sorted_names(name for _, _, name in in_edges)
            assert ours.neighbors(a) == sorted(adjacent)
            assert tuple(l.name for l in ours.forward_links(a)) == forward
            assert tuple(l.name for l in ours.backward_links(a)) == backward
            assert tuple(l.name for l in ours.incident_links(a)) == _sorted_names(
                set(forward) | set(backward)
            )
        for a in (*names, UNKNOWN):
            for b in (*names, UNKNOWN):
                link = ours.link_between(a, b)
                expected = oracle.edges[a, b]["link"] if oracle.has_edge(a, b) else None
                assert (link.name if link is not None else None) == expected
