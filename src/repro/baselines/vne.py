"""VNE baseline: topology-aware node ranking (Cheng et al., CCR 2011).

The RW-MaxMatch algorithm of the virtual-network-embedding literature ranks
substrate nodes and virtual nodes with a Markov random walk resembling
PageRank, where a node's initial score is its *resource strength* —
capacity (or requirement) times the total bandwidth of incident links — and
the walk spreads scores along links proportionally to bandwidth.  Virtual
nodes are then mapped to substrate nodes in matching rank order, and
virtual links are routed over shortest paths.

Adapted to SPARCLE's setting:

* substrate nodes = NCPs scored by ``CPU capacity x sum of incident link
  bandwidth``;
* virtual nodes = CTs scored by ``CPU requirement x sum of incident TT
  megabits``;
* the k-th ranked unpinned CT goes to the k-th ranked NCP (wrapping around
  when there are more CTs than NCPs — VNE proper forbids co-location, but a
  task graph may simply be larger than the network);
* TTs are routed minimum-hop, as in the original (which selects paths by
  hop count among feasible ones).

As the SPARCLE paper notes, VNE assumes *fixed* resource demands, so it
cannot adapt the placement to the rate-scaling objective — the source of
its losses in the link-bottleneck cases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.assignment import AssignmentResult, fixed_placement
from repro.core.network import Network
from repro.core.placement import CapacityView
from repro.core.taskgraph import CPU, TaskGraph

if TYPE_CHECKING:
    import networkx as nx

#: PageRank damping factor used by the random-walk ranking.
DAMPING = 0.85


def rank_ncps(network: Network) -> list[str]:
    """NCPs by descending random-walk resource rank."""
    import networkx as nx

    graph = nx.Graph()
    strength: dict[str, float] = {}
    for ncp in network.ncps:
        incident_bw = sum(link.bandwidth for link in network.incident_links(ncp.name))
        strength[ncp.name] = ncp.capacity(CPU) * max(incident_bw, 1e-12)
        graph.add_node(ncp.name)
    for link in network.links:
        graph.add_edge(link.a, link.b, weight=link.bandwidth)
    scores = _random_walk_scores(graph, strength)
    return sorted(network.ncp_names, key=lambda n: (-scores[n], n))


def rank_cts(graph: TaskGraph) -> list[str]:
    """Unpinned CTs by descending random-walk requirement rank."""
    import networkx as nx

    undirected = nx.Graph()
    strength: dict[str, float] = {}
    for ct in graph.cts:
        incident = sum(
            tt.megabits_per_unit
            for tt in graph.tts
            if tt.src == ct.name or tt.dst == ct.name
        )
        strength[ct.name] = max(ct.requirement(CPU), 1e-12) * max(incident, 1e-12)
        undirected.add_node(ct.name)
    for tt in graph.tts:
        weight = max(tt.megabits_per_unit, 1e-12)
        if undirected.has_edge(tt.src, tt.dst):
            undirected.edges[tt.src, tt.dst]["weight"] += weight
        else:
            undirected.add_edge(tt.src, tt.dst, weight=weight)
    scores = _random_walk_scores(undirected, strength)
    unpinned = [ct.name for ct in graph.cts if ct.pinned_host is None]
    return sorted(unpinned, key=lambda n: (-scores[n], n))


def _random_walk_scores(graph: nx.Graph, strength: dict[str, float]) -> dict[str, float]:
    """PageRank with resource-strength personalization and restart."""
    total = sum(strength.values())
    if total <= 0:
        return {n: 1.0 for n in graph}
    personalization = {n: strength[n] / total for n in graph}
    if graph.number_of_edges() == 0:
        return dict(personalization)
    import networkx as nx

    return nx.pagerank(
        graph,
        alpha=DAMPING,
        personalization=personalization,
        weight="weight",
    )


def vne_assign(
    graph: TaskGraph,
    network: Network,
    capacities: CapacityView | None = None,
) -> AssignmentResult:
    """Map rank-ordered CTs onto rank-ordered NCPs; route minimum-hop."""
    caps = capacities if capacities is not None else CapacityView(network)
    ncp_order = rank_ncps(network)
    ct_order = rank_cts(graph)
    hosts: dict[str, str] = {
        ct.name: ct.pinned_host for ct in graph.cts if ct.pinned_host is not None
    }
    for index, ct_name in enumerate(ct_order):
        hosts[ct_name] = ncp_order[index % len(ncp_order)]
    return fixed_placement(graph, network, hosts, caps, router="hops")
