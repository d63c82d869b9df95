"""The five admission workloads: seeded scenario + request-stream generators.

A workload is a fixed network (its definition, identical for every seed), a
request stream drawn from ``--seed`` (pins, GR/BE mix, demanded rates), and
the way the stream is driven (closed or open loop, connections, live-app
cap).  The server under test receives only what :func:`generate` returns:
the scenario JSON document and wire-typed submits.

Request counts are fixed per workload (``submits_per_s * seconds``) so the
same seed gives byte-identical inputs and the quality metrics repeat
exactly on the one-connection workloads; ``submits_per_s`` is the rate the
seed code sustains, so a window lasts about ``--seconds`` there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.network import NCP, Link, Network, fully_connected_network
from repro.core.taskgraph import (
    CPU,
    TaskGraph,
    diamond_chain_task_graph,
    linear_task_graph,
)
from repro.emulator.scenario import graph_to_dict, scenario_to_dict
from repro.service.protocol import SubmitRequest
from repro.utils.rng import ensure_rng
from repro.workloads.scenarios import (
    GraphKind,
    TopologyKind,
    random_network,
    random_task_graph,
)

#: Seeds of the fixed (per-workload, not per-run) random networks.
DENSE_NETWORK_SEED = 4801
CONTENDED_NETWORK_SEED = 1207

#: Share of ``sharded-cross`` apps pinned across two regions.  A third, not
#: a half: the median latency then sits inside the intra-region mode and
#: the tail inside the cross-region mode, instead of on the edge between.
CROSS_SHARE = 1.0 / 3.0

#: ``--quick`` smoke: this many submits per workload, no bounds applied.
QUICK_SUBMITS = 200


@dataclass(frozen=True)
class Workload:
    """One traffic mix and how it is driven."""

    name: str
    why: str
    shards: int
    connections: int
    loop: str  # "closed" | "open"
    live_cap: int  # per connection; closed loop withdraws the oldest above it
    limit_ms: float  # the latency limit `slo_met_share` is judged against
    submits_per_s: float  # sizes the window: submits = this * --seconds
    warmup: int  # admissions decided and withdrawn during set-up
    boundary_links: int = 0  # links the partition must leave between shards
    arrival_rate: float = 0.0  # open loop only: Poisson arrivals per second
    hold_s: float = 0.0  # open loop only: accepted apps leave after this

    def submits(self, seconds: float) -> int:
        """The fixed request count of a ``seconds``-long window."""
        return max(20, int(round(self.submits_per_s * seconds)))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mesh-churn",
            why="many small apps on a 16-NCP mesh over 2 connections: wire, "
            "server, gateway batching/requeue and the log are half the cost",
            shards=1, connections=2, loop="closed", live_cap=40,
            limit_ms=25.0, submits_per_s=150.0, warmup=30,
        ),
        Workload(
            name="mesh-poisson",
            why="same mesh, open-loop Poisson at about a quarter of capacity: "
            "epoch batching, requeue backoff and ack delay show as queueing",
            shards=1, connections=2, loop="open", live_cap=0,
            limit_ms=50.0, submits_per_s=45.0, warmup=30,
            arrival_rate=30.0, hold_s=0.7,
        ),
        Workload(
            name="dense-place",
            why="20-CT diamond chains on a dense random mesh: Algorithm 2 "
            "and the widest-path kernel are the cost; serving changes "
            "must show nothing here",
            shards=1, connections=1, loop="closed", live_cap=20,
            limit_ms=100.0, submits_per_s=12.5, warmup=4,
        ),
        Workload(
            name="sharded-cross",
            why="4 regions, a third of the apps pinned across them: the only "
            "workload on two-phase reserve/commit, the boundary ledger "
            "and five logs",
            shards=4, connections=1, loop="closed", live_cap=40,
            limit_ms=25.0, submits_per_s=160.0, warmup=30,
            boundary_links=8,
        ),
        Workload(
            name="contended-qoe",
            why="saturated 12-NCP mesh with fallible NCPs: multipath loop, "
            "Eq. (7) enumeration and the reject path dominate",
            shards=1, connections=1, loop="closed", live_cap=16,
            limit_ms=25.0, submits_per_s=100.0, warmup=30,
        ),
    )
}


# ----------------------------------------------------------------------
# Networks (fixed per workload)
# ----------------------------------------------------------------------
def _mesh_network() -> Network:
    return fully_connected_network(
        16, name="mesh16", cpu=200000.0, link_bandwidth=500.0
    )


def _clustered_network() -> Network:
    """4 clusters x 8 NCPs: mesh inside at 500, a ring of 8 links at 200.

    The min-bottleneck-cut heuristic behind ``serve --shards 4`` cuts the
    three thinnest maximum-spanning-tree edges, which are ring links, so
    the regions it finds are exactly the clusters.
    """
    ncps = [
        NCP(f"ncp{c * 8 + k + 1}", {CPU: 200000.0})
        for c in range(4)
        for k in range(8)
    ]
    links: list[Link] = []
    for c in range(4):
        members = [f"ncp{c * 8 + k + 1}" for k in range(8)]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                links.append(Link(f"l{len(links) + 1}", a, b, 500.0))
    for c in range(4):
        nxt = (c + 1) % 4
        for k in (0, 1):
            a = f"ncp{c * 8 + 7 - k}"
            b = f"ncp{nxt * 8 + 1 + k}"
            links.append(Link(f"l{len(links) + 1}", a, b, 200.0))
    return Network("clusters4x8", ncps, links)


def _dense_network() -> Network:
    return random_network(TopologyKind.FULL, DENSE_NETWORK_SEED, n_ncps=48)


def _contended_network() -> Network:
    # Link failure probability stays 0: see the availability cliff in
    # README.md (2^22 states in rate_distribution, one admission 19.7 s).
    return random_network(
        TopologyKind.FULL,
        CONTENDED_NETWORK_SEED,
        n_ncps=12,
        ncp_failure_probability=0.03,
    )


def network_for(name: str) -> Network:
    """The fixed network of one workload."""
    if name in ("mesh-churn", "mesh-poisson"):
        return _mesh_network()
    if name == "dense-place":
        return _dense_network()
    if name == "sharded-cross":
        return _clustered_network()
    if name == "contended-qoe":
        return _contended_network()
    raise KeyError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# Request streams (drawn from the seed)
# ----------------------------------------------------------------------
def _two_hosts(rng: np.random.Generator, names: list[str]) -> tuple[str, str]:
    a, b = rng.choice(len(names), size=2, replace=False)
    return names[int(a)], names[int(b)]


def _small_app(index: int, src: str, dst: str) -> TaskGraph:
    return linear_task_graph(
        3, cpu_per_ct=[200.0, 300.0, 100.0],
        megabits_per_tt=[1.0, 0.8, 0.5, 0.5],
    ).with_pins({"source": src, "sink": dst}, name=f"app{index}")


def _mesh_requests(
    rng: np.random.Generator, network: Network, count: int, prefix: str,
    *, cross_share: float = 0.0,
) -> list[SubmitRequest]:
    """3-CT linear apps, 2/3 GR (min_rate .02) 1/3 BE, ``max_paths`` 2."""
    names = list(network.ncp_names)
    regions = [names[c * 8 : c * 8 + 8] for c in range(len(names) // 8)]
    out: list[SubmitRequest] = []
    for index in range(count):
        if cross_share and rng.random() < cross_share:
            ra, rb = rng.choice(len(regions), size=2, replace=False)
            src = regions[int(ra)][int(rng.integers(8))]
            dst = regions[int(rb)][int(rng.integers(8))]
        elif cross_share:
            region = regions[int(rng.integers(len(regions)))]
            src, dst = _two_hosts(rng, region)
        else:
            src, dst = _two_hosts(rng, names)
        graph = graph_to_dict(_small_app(index, src, dst))
        app_id = f"{prefix}{index}"
        if rng.random() < 1.0 / 3.0:
            out.append(SubmitRequest(
                app_id=app_id, kind="BE", graph=graph,
                priority=float(rng.integers(1, 4)), max_paths=2,
            ))
        else:
            out.append(SubmitRequest(
                app_id=app_id, kind="GR", graph=graph,
                min_rate=0.02, max_paths=2,
            ))
    return out


def _dense_requests(
    rng: np.random.Generator, network: Network, count: int, prefix: str
) -> list[SubmitRequest]:
    names = list(network.ncp_names)
    chain = diamond_chain_task_graph(
        6, cpu_per_ct=300.0, megabits_per_tt=1.0
    )
    out: list[SubmitRequest] = []
    for index in range(count):
        src, dst = _two_hosts(rng, names)
        graph = chain.with_pins(
            {"source": src, "sink": dst}, name=f"chain{index}"
        )
        out.append(SubmitRequest(
            app_id=f"{prefix}{index}", kind="GR",
            graph=graph_to_dict(graph), min_rate=0.05, max_paths=2,
        ))
    return out


def _contended_requests(
    rng: np.random.Generator, network: Network, count: int, prefix: str
) -> list[SubmitRequest]:
    """GR apps asking U(0.1, 0.45) of their solo rate at 0.9 availability."""
    from repro.core.assignment import sparcle_assign
    from repro.core.placement import CapacityView

    names = list(network.ncp_names)
    out: list[SubmitRequest] = []
    for index in range(count):
        src, dst = _two_hosts(rng, names)
        graph = random_task_graph(GraphKind.LINEAR, rng).with_pins(
            {"source": src, "sink": dst}, name=f"qoe{index}"
        )
        app_id = f"{prefix}{index}"
        share = float(rng.uniform(0.1, 0.45))
        if index % 3 == 2:
            out.append(SubmitRequest(
                app_id=app_id, kind="BE", graph=graph_to_dict(graph),
                priority=float(rng.integers(1, 4)), availability=0.9,
                max_paths=3,
            ))
            continue
        solo = sparcle_assign(graph, network, CapacityView(network)).rate
        out.append(SubmitRequest(
            app_id=app_id, kind="GR", graph=graph_to_dict(graph),
            min_rate=share * solo, min_rate_availability=0.9, max_paths=3,
        ))
    return out


def requests_for(
    name: str, seed: int, count: int, *, prefix: str = "a"
) -> list[SubmitRequest]:
    """``count`` wire submits of one workload, drawn from ``seed``."""
    # The prefix is folded into the stream seed so the warm-up stream
    # ("w" ids) and the measured stream differ in pins as well as in ids.
    rng = ensure_rng(seed * 65536 + sum(prefix.encode()))
    network = network_for(name)
    if name in ("mesh-churn", "mesh-poisson"):
        return _mesh_requests(rng, network, count, prefix)
    if name == "sharded-cross":
        return _mesh_requests(
            rng, network, count, prefix, cross_share=CROSS_SHARE
        )
    if name == "dense-place":
        return _dense_requests(rng, network, count, prefix)
    if name == "contended-qoe":
        return _contended_requests(rng, network, count, prefix)
    raise KeyError(f"unknown workload {name!r}")


def arrival_times(seed: int, count: int, rate: float) -> list[float]:
    """Poisson arrival offsets (seconds from window start), from the seed.

    A Poisson process conditioned on ``count`` arrivals in ``count / rate``
    seconds is ``count`` sorted uniform draws, so every seed offers the
    same load over the same window and only the spacing differs.
    """
    rng = ensure_rng(seed * 65536 + 0xA221)
    return [float(t) for t in np.sort(rng.uniform(0.0, count / rate, count))]


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the system under test."""

    workload: Workload
    network: Network
    scenario: dict[str, Any]
    warmup: list[SubmitRequest]
    requests: list[SubmitRequest]
    arrivals: list[float]  # empty for closed loops

    def fingerprint(self) -> bytes:
        """Canonical bytes of the inputs (the same-seed identity check)."""
        return json.dumps(
            {
                "scenario": self.scenario,
                "warmup": [r.to_wire() for r in self.warmup],
                "requests": [r.to_wire() for r in self.requests],
                "arrivals": self.arrivals,
            },
            sort_keys=True,
        ).encode("utf-8")


def generate(name: str, seed: int, submits: int) -> Inputs:
    """The scenario document and request streams of one run."""
    workload = WORKLOADS[name]
    network = network_for(name)
    requests = requests_for(name, seed, submits)
    warmup = requests_for(name, seed, workload.warmup, prefix="w")
    scenario = scenario_to_dict(
        name, network, requests[0].to_request().graph
    )
    arrivals = (
        arrival_times(seed, submits, workload.arrival_rate)
        if workload.loop == "open"
        else []
    )
    return Inputs(workload, network, scenario, warmup, requests, arrivals)
