"""Bounded retention: a decision is handed over once and then let go.

No layer of the serving stack keeps decision history.  A decision lives
under its ticket until the consumer retires it (the server right after
writing the reply, or unsent when its client has gone); a withdrawn
app's placements live in its scheduler's app table until the withdraw.
These tests pin that down three ways: the objects of a retired,
withdrawn app die; a long run holds containers no larger than a short
one; and the server leaves no ticket behind, vanished clients included.
"""

from __future__ import annotations

import asyncio
import gc
import weakref
from collections import deque
from types import SimpleNamespace

import pytest

from repro.core.network import fully_connected_network
from repro.core.scheduler import BERequest, GRRequest
from repro.core.taskgraph import linear_task_graph
from repro.perf.counters import PerfRegistry
from repro.service.client import SparcleClient
from repro.service.protocol import DecisionReply, SubmitRequest, encode
from repro.service.server import SparcleServer
from repro.service.shard import LEDGER, ShardCoordinator


def _network():
    return fully_connected_network(8, cpu=30000.0, link_bandwidth=50.0)


def _request(app_id: str, index: int) -> GRRequest | BERequest:
    """A fixed pattern of pins, so every cycle touches the same elements."""
    src = f"ncp{1 + index % 8}"
    dst = f"ncp{1 + (index * 3 + 1) % 8}"
    graph = linear_task_graph(
        2, cpu_per_ct=300.0, megabits_per_tt=1.0
    ).with_pins({"source": src, "sink": dst}, name=app_id)
    if index % 3 == 2:
        return BERequest(app_id, graph, max_paths=2)
    return GRRequest(app_id, graph, min_rate=0.5, max_paths=2)


def _decide(coordinator: ShardCoordinator, request) -> tuple[int, object]:
    """Submit one request and run epochs until its decision is handed over."""
    ticket = coordinator.submit(request)
    for _ in range(50):
        for decided_ticket, decision in coordinator.run_epoch().decided:
            if decided_ticket == ticket:
                return ticket, decision
    raise AssertionError(f"{request.app_id} was never decided")


def _cycle(coordinator: ShardCoordinator, cycle: int, width: int = 6) -> int:
    """Submit, decide, reply, retire, then withdraw every admitted app."""
    admitted = []
    for index in range(width):
        ticket, decision = _decide(
            coordinator, _request(f"c{cycle}-{index}", index)
        )
        DecisionReply.from_decision(decision, seq=ticket)
        coordinator.retire(ticket)
        if decision.accepted:
            admitted.append(decision.app_id)
    for app_id in admitted:
        coordinator.withdraw(app_id)
    return len(admitted)


def _sizes(coordinator: ShardCoordinator) -> dict[str, int]:
    """The length of every container each layer of the federation holds."""
    layers = {"coordinator": coordinator, "cross": coordinator._cross_queue}
    for node in coordinator.nodes:
        layers[f"node{node.shard_id}"] = node
        layers[f"gateway{node.shard_id}"] = node.gateway
        layers[f"queue{node.shard_id}"] = node.gateway._queue
        layers[f"scheduler{node.shard_id}"] = node.scheduler
    return {
        f"{layer}.{name}": len(value)
        for layer, obj in layers.items()
        for name, value in vars(obj).items()
        if isinstance(value, (dict, list, set, deque))
    }


@pytest.mark.parametrize("n_shards", [1, 4])
class TestHandOff:
    def test_a_retired_withdrawn_app_leaves_nothing_alive(self, n_shards):
        refs: list[weakref.ref] = []
        lanes = set()
        with ShardCoordinator(_network(), n_shards=n_shards) as coordinator:
            for index in range(12):
                request = _request(f"app{index}", index)
                lanes.add(coordinator._route(request) == LEDGER)
                ticket, decision = _decide(coordinator, request)
                refs.append(weakref.ref(decision))
                refs.extend(weakref.ref(p) for p in decision.placements)
                DecisionReply.from_decision(decision, seq=ticket)
                coordinator.retire(ticket)
                if decision.accepted:
                    coordinator.withdraw(decision.app_id)
                del decision
            assert coordinator.decisions_held == 0
            gc.collect()
            assert [ref for ref in refs if ref() is not None] == []
        # Four shards put some of the requests on the cross-shard lane.
        assert lanes == ({False, True} if n_shards == 4 else {False})

    def test_a_long_run_holds_no_more_than_a_short_one(self, n_shards, tmp_path):
        # File-backed logs keep counts, not records.
        with ShardCoordinator(
            _network(), n_shards=n_shards, log_dir=tmp_path
        ) as coordinator:
            admitted = sum(_cycle(coordinator, cycle) for cycle in range(3))
            short = _sizes(coordinator)
            admitted += sum(_cycle(coordinator, cycle) for cycle in range(3, 6))
            assert _sizes(coordinator) == short
            assert admitted > 0


def _serve(coro_factory):
    async def _run():
        async with SparcleServer(
            _network(), n_shards=2, epoch_interval=0.005,
            registry=PerfRegistry(),
        ) as server:
            return await coro_factory(server)

    return asyncio.run(_run())


async def _until(predicate, timeout: float = 10.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


class TestServerHoldsNoTicket:
    def test_a_written_decision_is_retired(self):
        async def _go(server):
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                for index in range(6):
                    request = _request(f"app{index}", index)
                    await client.submit(request)
                    decision = await asyncio.wait_for(
                        client.decision(request.app_id), 10.0
                    )
                    assert server.coordinator.decisions_held == 0
                    if decision.accepted:
                        await client.withdraw(request.app_id)
            assert server.coordinator.decisions_held == 0

        _serve(_go)

    def test_a_vanished_client_leaves_no_ticket_behind(self):
        hold = [True]

        async def _go(server):
            # Decide nothing until the client has gone, so every one of
            # its decisions is in flight when it disconnects.
            run_epoch = server.coordinator.run_epoch
            server.coordinator.run_epoch = (
                lambda: SimpleNamespace(decided=()) if hold[0] else run_epoch()
            )
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            for index in range(3):
                writer.write(encode(SubmitRequest.from_request(
                    _request(f"gone{index}", index), seq=index + 1
                )))
            await writer.drain()
            for _ in range(3):
                await asyncio.wait_for(reader.readline(), 10.0)  # the acks
            writer.close()
            await _until(lambda: not server._connections)
            assert server.coordinator.queue_depth == 3
            hold[0] = False
            await _until(lambda: server.coordinator.queue_depth == 0)
            # Decided and logged, then retired unsent.
            assert server.coordinator.stats.committed == 3
            assert server.coordinator.decisions_held == 0
            assert server._pending == {}

        _serve(_go)
