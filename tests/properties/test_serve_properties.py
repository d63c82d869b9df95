"""Property: serial wire traffic is decision-identical to in-process.

The acceptance bar for the serving front-end: a single client submitting
one request at a time (awaiting each decision before the next submit)
must get bit-for-bit the same decision stream an in-process
:class:`~repro.service.gateway.AdmissionGateway` produces for the same
request sequence — the wire protocol, the asyncio epoch loop, and the
JSON round trip of graphs and decisions may not change any admission
outcome, rate, or placement.
"""

from __future__ import annotations

import asyncio

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import star_network
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import linear_task_graph
from repro.perf.metrics import LabeledRegistry
from repro.service.client import SparcleClient
from repro.service.gateway import AdmissionGateway
from repro.service.server import SparcleServer

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

TOLERANCE = 1e-9


@st.composite
def serve_scenarios(draw):
    """A star network plus a short mixed GR/BE serial request stream."""
    n_leaves = draw(st.integers(min_value=4, max_value=6))
    network = star_network(
        n_leaves,
        hub_cpu=draw(st.floats(5000.0, 30000.0)),
        leaf_cpu=draw(st.floats(2000.0, 15000.0)),
        link_bandwidth=draw(st.floats(10.0, 60.0)),
    )
    n_requests = draw(st.integers(min_value=2, max_value=6))
    requests = []
    for index in range(n_requests):
        src = f"ncp{draw(st.integers(1, n_leaves))}"
        dst_choices = [
            f"ncp{i}" for i in range(1, n_leaves + 1) if f"ncp{i}" != src
        ]
        dst = draw(st.sampled_from(dst_choices))
        cpu = draw(st.floats(100.0, 800.0))
        graph = linear_task_graph(
            2, cpu_per_ct=[cpu, cpu * 0.5], megabits_per_tt=[1.0, 1.0, 0.5],
        ).with_pins({"source": src, "sink": dst}, name=f"app{index}")
        if draw(st.booleans()):
            requests.append(GRRequest(
                f"app{index}", graph,
                min_rate=draw(st.floats(0.01, 0.5)), max_paths=2,
            ))
        else:
            requests.append(BERequest(
                f"app{index}", graph,
                priority=draw(st.sampled_from([1.0, 2.0, 4.0])), max_paths=2,
            ))
    return network, requests


def _in_process_decisions(network, requests):
    """Serial submit -> epoch -> decision through the in-process gateway."""
    scheduler = SparcleScheduler(network)
    decisions = []
    with AdmissionGateway(scheduler) as gateway:
        for request in requests:
            ticket = gateway.submit(request)
            gateway.run_epoch()
            decisions.append(gateway.decision_for(ticket))
    return decisions


def _wire_decisions(network, requests):
    """The same serial stream through a real server over real sockets."""

    async def _run():
        decisions = []
        async with SparcleServer(
            network,
            n_shards=1,
            epoch_interval=0.005,
            registry=LabeledRegistry(),
        ) as server:
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                for request in requests:
                    await client.submit(request)
                    decisions.append(await client.decision(request.app_id))
        return decisions

    return asyncio.run(_run())


class TestWireTrafficIsDecisionIdentical:
    @SETTINGS
    @given(serve_scenarios())
    def test_serial_wire_stream_matches_in_process_gateway(self, scenario):
        network, requests = scenario
        expected = _in_process_decisions(network, requests)
        actual = _wire_decisions(network, requests)
        assert len(actual) == len(expected)
        for decision, reply in zip(expected, actual):
            assert reply.app_id == decision.app_id
            assert reply.kind == decision.kind
            assert reply.accepted == decision.accepted
            assert reply.reason == decision.reason
            assert len(reply.path_rates) == len(decision.path_rates)
            for got, want in zip(reply.path_rates, decision.path_rates):
                assert abs(got - want) <= TOLERANCE * max(1.0, abs(want))
            for placement_doc, placement in zip(
                reply.placements, decision.placements
            ):
                assert placement_doc["ct_hosts"] == dict(placement.ct_hosts)
                assert placement_doc["tt_routes"] == {
                    tt: list(route)
                    for tt, route in placement.tt_routes.items()
                }
