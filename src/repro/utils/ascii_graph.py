"""ASCII rendering of task graphs and placements.

Terminal-friendly sketches used by the CLI and the examples: the task
graph drawn layer by layer (topological generations), and a placement
rendered as a network-side map of which CTs sit on which NCP and which TTs
cross which link.  No plotting dependency, deterministic output.
"""

from __future__ import annotations

from repro.core.network import Network
from repro.core.placement import Placement
from repro.core.taskgraph import TaskGraph


def _generations(graph: TaskGraph) -> list[list[str]]:
    """Topological generations of the CT DAG."""
    import networkx as nx

    digraph = nx.DiGraph()
    digraph.add_nodes_from(ct.name for ct in graph.cts)
    digraph.add_edges_from((tt.src, tt.dst) for tt in graph.tts)
    return [sorted(layer) for layer in nx.topological_generations(digraph)]


def render_task_graph(graph: TaskGraph) -> str:
    """The DAG as indented layers with per-edge TT sizes.

    Example output::

        [sensor-pipeline]
        layer 0: source
          source -(tt1: 8.0Mb)-> ct1
        layer 1: ct1 (cpu=2000)
          ...
    """
    lines = [f"[{graph.name}]"]
    for depth, layer in enumerate(_generations(graph)):
        rendered = []
        for name in layer:
            ct = graph.ct(name)
            if ct.requirements:
                reqs = ",".join(
                    f"{resource}={amount:g}"
                    for resource, amount in sorted(ct.requirements.items())
                )
                rendered.append(f"{name} ({reqs})")
            else:
                rendered.append(name)
        lines.append(f"layer {depth}: " + ", ".join(rendered))
        for name in layer:
            for tt in graph.tts:
                if tt.src == name:
                    lines.append(
                        f"  {tt.src} -({tt.name}: {tt.megabits_per_unit:g}Mb)-> {tt.dst}"
                    )
    return "\n".join(lines)


def render_placement(network: Network, placement: Placement) -> str:
    """The placement as a per-NCP / per-link occupancy map.

    Example output::

        NCPs
          ncp1 <- source, ct1
          hub  <- ct2
        links
          l1 <- tt2 (4Mb)
          l2 <- (idle)
    """
    graph = placement.graph
    by_ncp: dict[str, list[str]] = {}
    for ct in graph.cts:
        by_ncp.setdefault(placement.host(ct.name), []).append(ct.name)
    by_link: dict[str, list[str]] = {}
    for tt in graph.tts:
        for link_name in placement.route(tt.name):
            by_link.setdefault(link_name, []).append(tt.name)
    width = max((len(name) for name in network.element_names()), default=4)
    lines = ["NCPs"]
    for name in network.ncp_names:
        tenants = ", ".join(by_ncp.get(name, [])) or "(idle)"
        lines.append(f"  {name:<{width}} <- {tenants}")
    lines.append("links")
    for name in network.link_names:
        tts = by_link.get(name)
        if tts:
            rendered = ", ".join(
                f"{tt_name} ({graph.tt(tt_name).megabits_per_unit:g}Mb)"
                for tt_name in tts
            )
        else:
            rendered = "(idle)"
        lines.append(f"  {name:<{width}} <- {rendered}")
    return "\n".join(lines)
