"""End-to-end tests for the asyncio serving front-end.

Every test runs a real :class:`SparcleServer` on an ephemeral port and
talks to it over real sockets with :class:`SparcleClient` (or raw
reader/writer pairs where the test needs byte-level control, e.g. to
land two submits in one TCP segment so the inflight shed is
deterministic).  Tests are plain sync functions driving their own
``asyncio.run`` — the project does not depend on pytest-asyncio.
"""

from __future__ import annotations

import asyncio
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core.network import fully_connected_network, star_network
from repro.core.scheduler import BERequest, GRRequest
from repro.core.taskgraph import linear_task_graph
from repro.exceptions import (
    AdmissionError,
    BackpressureError,
    ProtocolError,
    ServerError,
)
from repro.perf.counters import PerfRegistry
from repro.service.client import SparcleClient, scrape_metrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    WIRE_LINE_LIMIT,
    DecisionReply,
    ErrorReply,
    StatusReply,
    StatusRequest,
    SubmitReply,
    SubmitRequest,
    decode,
    encode,
)
from repro.service.server import SparcleServer
from repro.service.shard import replay_log

DATA = Path(__file__).resolve().parents[1] / "data"


def _network():
    return fully_connected_network(4, cpu=20000.0, link_bandwidth=50.0)


def _gr(app_id: str, *, min_rate: float = 0.1,
        src: str = "ncp1", dst: str = "ncp2") -> GRRequest:
    graph = linear_task_graph(
        2, cpu_per_ct=300.0, megabits_per_tt=1.0
    ).with_pins({"source": src, "sink": dst}, name=app_id)
    return GRRequest(app_id, graph, min_rate=min_rate, max_paths=2)


def _be(app_id: str, *, priority: float = 1.0) -> BERequest:
    graph = linear_task_graph(
        2, cpu_per_ct=300.0, megabits_per_tt=1.0
    ).with_pins({"source": "ncp1", "sink": "ncp3"}, name=app_id)
    return BERequest(app_id, graph, priority=priority, max_paths=2)


def _serve(coro_factory, **server_kwargs):
    """Run one server plus the test coroutine against it."""
    server_kwargs.setdefault("epoch_interval", 0.005)
    server_kwargs.setdefault("registry", PerfRegistry())

    async def _run():
        async with SparcleServer(_network(), **server_kwargs) as server:
            return await coro_factory(server)

    return asyncio.run(_run())


class TestLifecycle:
    def test_construction_validation(self):
        with pytest.raises(ServerError, match="max_inflight"):
            SparcleServer(_network(), max_inflight=0)
        with pytest.raises(ServerError, match="epoch_interval"):
            SparcleServer(_network(), epoch_interval=0.0)

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_recover_without_log_dir_rejected_at_construction(self, n_shards):
        # Regression: only the old unsharded mode failed fast; the sharded
        # one built a full coordinator and raised from start() instead.
        with pytest.raises(ServerError, match="durable log_dir"):
            SparcleServer(_network(), n_shards=n_shards, recover=True)

    def test_double_start_rejected(self):
        async def _go(server):
            with pytest.raises(ServerError, match="already started"):
                await server.start()

        _serve(_go)

    def test_shutdown_is_idempotent(self):
        async def _run():
            server = SparcleServer(_network(), registry=PerfRegistry())
            await server.start()
            await server.shutdown()
            await server.shutdown()  # second call just waits for the first

        asyncio.run(_run())

    def test_begin_shutdown_retains_task_and_runs_once(self):
        # Regression: the signal/drain paths used to fire-and-forget the
        # shutdown coroutine — the Task could be garbage-collected
        # mid-shutdown and its exception silently dropped.
        async def _run():
            server = SparcleServer(_network(), registry=PerfRegistry())
            await server.start()
            server._begin_shutdown(drain=False)
            first = server._shutdown_task
            assert first is not None
            server._begin_shutdown(drain=False)  # no second task while live
            assert server._shutdown_task is first
            await server.wait_closed()
            await first  # the retained handle is awaitable and clean

        asyncio.run(_run())

    def test_begin_shutdown_surfaces_task_exception(self, capsys):
        registry = PerfRegistry()

        async def _run():
            server = SparcleServer(_network(), registry=registry)
            await server.start()

            async def _boom(*, drain):
                raise RuntimeError("shutdown exploded")

            server.shutdown = _boom
            server._begin_shutdown(drain=False)
            task = server._shutdown_task
            assert task is not None
            with pytest.raises(RuntimeError, match="shutdown exploded"):
                await task
            # Let the done-callback run, then really shut down.
            await asyncio.sleep(0)
            del server.shutdown
            await server.shutdown()

        asyncio.run(_run())
        assert registry.get("server.shutdown_errors") == 1
        assert "shutdown failed" in capsys.readouterr().err


class TestSubmitAndDecide:
    def test_submit_decide_status_topology_withdraw(self):
        async def _go(server):
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                ticket = await client.submit(_gr("app1"))
                assert isinstance(ticket, int)
                decision = await client.decision("app1")
                assert decision.accepted
                assert decision.kind == "GR"
                assert decision.total_rate > 0.0
                assert decision.placements[0]["ct_hosts"]

                status = await client.status()
                assert status.protocol_version == PROTOCOL_VERSION
                assert status.backend == "shards"
                assert status.submitted == 1
                assert status.accepted == 1

                topology = await client.topology()
                assert len(topology.shards) == 2
                assert all(entry["alive"] for entry in topology.shards)

                reply = await client.withdraw("app1")
                assert reply.app_id == "app1"
                with pytest.raises(AdmissionError):
                    await client.withdraw("app1")

        _serve(_go)

    def test_single_shard_backend(self):
        async def _go(server):
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                await client.submit(_be("be1"))
                decision = await client.decision("be1")
                assert decision.accepted
                status = await client.status()
                assert status.backend == "shards"
                topology = await client.topology()
                assert len(topology.shards) == 1
                assert topology.boundary_links == 0
                assert topology.shards[0]["apps"] == 1

        _serve(_go, n_shards=1)

    def test_duplicate_submit_raises_admission_error(self):
        async def _go(server):
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                await client.submit(_gr("dup"))
                await client.decision("dup")
                with pytest.raises(AdmissionError):
                    await client.submit(_gr("dup"))

        _serve(_go)

    def test_closed_loop_process_decides_everything(self):
        requests = [_gr(f"g{i}") for i in range(3)] + [
            _be(f"b{i}") for i in range(3)
        ]

        async def _go(server):
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                decisions = await client.process(requests, window=2)
                assert len(decisions) == len(requests)
                assert all(d is not None for d in decisions)
                assert [d.app_id for d in decisions] == [
                    r.app_id for r in requests
                ]

        _serve(_go)


class TestNoTimerWait:
    def test_local_lane_never_waits_on_the_epoch_timer(self):
        # Two connections pipeline BE apps pinned to the same host pair,
        # so several overlapping requests land in one epoch.  Each is
        # decided in the epoch that pops it; with a 5 s idle heartbeat
        # any request parked for "the next epoch" would blow the budget
        # (the parent re-queued the overlapping ones behind the timer).
        epoch_interval = 5.0
        per_client = 4

        async def _burst(client, tag):
            ids = [f"{tag}{i}" for i in range(per_client)]
            await asyncio.gather(*(client.submit(_be(i)) for i in ids))
            return await asyncio.gather(*(client.decision(i) for i in ids))

        async def _go(server):
            loop = asyncio.get_running_loop()
            async with await SparcleClient.open(
                server.host, server.port
            ) as one, await SparcleClient.open(
                server.host, server.port
            ) as two:
                start = loop.time()
                decided = await asyncio.wait_for(
                    asyncio.gather(_burst(one, "a"), _burst(two, "b")),
                    timeout=epoch_interval / 2,
                )
                assert loop.time() - start < epoch_interval / 2
                assert sum(len(d) for d in decided) == 2 * per_client
                status = await one.status()
                assert status.submitted == 2 * per_client
                # Fewer epochs than requests: batches really overlapped.
                assert status.epoch < 2 * per_client

        _serve(_go, n_shards=1, epoch_interval=epoch_interval)


class TestBackpressure:
    def test_inflight_window_sheds_deterministically(self):
        async def _go(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=WIRE_LINE_LIMIT
            )
            try:
                # Two submits in one write: the server reads both lines
                # without yielding to the epoch loop, so the second
                # deterministically exceeds max_inflight=1.
                first = SubmitRequest.from_request(_gr("w1"), seq=1)
                second = SubmitRequest.from_request(_gr("w2"), seq=2)
                writer.write(encode(first) + encode(second))
                await writer.drain()
                replies = [
                    decode(await reader.readline()) for _ in range(2)
                ]
                ack = [r for r in replies if isinstance(r, SubmitReply)]
                shed = [r for r in replies if isinstance(r, ErrorReply)]
                assert len(ack) == 1 and ack[0].app_id == "w1"
                assert len(shed) == 1
                assert shed[0].code == "backpressure"
                assert shed[0].app_id == "w2"
            finally:
                writer.close()

        _serve(_go, max_inflight=1)

    def test_client_process_retries_backpressure(self):
        requests = [_gr(f"r{i}") for i in range(5)]

        async def _go(server):
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                decisions = await client.process(requests, window=1)
                assert all(d is not None for d in decisions)

        _serve(_go, max_inflight=1)

    def test_backend_queue_full_maps_to_backpressure_error(self):
        async def _go(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=WIRE_LINE_LIMIT
            )
            try:
                batch = b"".join(
                    encode(SubmitRequest.from_request(_gr(f"q{i}"), seq=i))
                    for i in range(4)
                )
                writer.write(batch)
                await writer.drain()
                replies = [
                    decode(await reader.readline()) for _ in range(4)
                ]
                sheds = [
                    r for r in replies
                    if isinstance(r, ErrorReply) and r.code == "backpressure"
                ]
                # max_queue_depth=2, max_inflight=8: submits 3 and 4 hit
                # the backend's bounded arrival queue.
                assert len(sheds) == 2
            finally:
                writer.close()

        _serve(_go, max_queue_depth=2)


class TestProtocolErrors:
    def test_malformed_line_gets_protocol_error_reply(self):
        async def _go(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=WIRE_LINE_LIMIT
            )
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = decode(await reader.readline())
                assert isinstance(reply, ErrorReply)
                assert reply.code == "protocol"
            finally:
                writer.close()

        _serve(_go)

    def test_wrong_version_gets_protocol_error_reply(self):
        async def _go(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=WIRE_LINE_LIMIT
            )
            try:
                writer.write(b'{"v": 99, "type": "status", "seq": 1}\n')
                await writer.drain()
                reply = decode(await reader.readline())
                assert isinstance(reply, ErrorReply)
                assert reply.code == "protocol"
                assert "version" in reply.message
            finally:
                writer.close()

        _serve(_go)

    @pytest.mark.parametrize(
        "kind,path,raw",
        [
            ("GR", "max_paths", "2.5"),
            ("BE", "priority", "NaN"),
            ("BE", "priority", '"Infinity"'),
            ("GR", "graph.cts.1.requirements.cpu", "NaN"),
            ("GR", "graph.cts.1.requirements.cpu", "Infinity"),
            ("BE", "graph.tts.1.megabits_per_unit", "NaN"),
            ("BE", "graph.tts.1.megabits_per_unit", "Infinity"),
        ],
    )
    def test_malformed_submit_refused_and_session_keeps_deciding(
        self, kind, path, raw
    ):
        # Regression: each of these was acked (or crashed the session) and
        # then broke the epoch loop or every later BE evaluation; a NaN CT
        # requirement was admitted and zeroed its host's residual.
        bad = _gr("bad") if kind == "GR" else _be("bad")
        doc = SubmitRequest.from_request(bad, seq=1).to_wire()
        *parents, field = path.split(".")
        target = doc
        for key in parents:
            target = target[int(key) if key.isdigit() else key]
        target[field] = "@RAW@"
        line = json.dumps(doc).replace('"@RAW@"', raw).encode() + b"\n"

        async def _go(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=WIRE_LINE_LIMIT
            )
            try:
                writer.write(line)
                await writer.drain()
                reply = decode(await reader.readline())
                assert isinstance(reply, ErrorReply)
                assert reply.code == "protocol"
                assert field in reply.message
                writer.write(encode(SubmitRequest.from_request(_gr("good"), seq=2)))
                await writer.drain()
                replies = [
                    decode(await asyncio.wait_for(reader.readline(), 5.0))
                    for _ in range(2)
                ]
                assert isinstance(replies[0], SubmitReply)
                assert isinstance(replies[1], DecisionReply)
                assert replies[1].app_id == "good" and replies[1].accepted
            finally:
                writer.close()

        _serve(_go)

    @pytest.mark.parametrize("after_status", [False, True])
    def test_oversize_frame_gets_protocol_error_then_eof(self, after_status):
        # Regression: a line over WIRE_LINE_LIMIT escaped the connection
        # task as an unhandled ValueError and the client read EOF with no
        # reply — as the first line and in mid-session alike.
        unhandled = []

        async def _go(server):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=WIRE_LINE_LIMIT
            )
            try:
                if after_status:
                    writer.write(encode(StatusRequest(seq=1)))
                    await writer.drain()
                    status = decode(await reader.readline())
                    assert isinstance(status, StatusReply)
                writer.write(b"x" * (WIRE_LINE_LIMIT + 1) + b"\n")
                await writer.drain()
                reply = decode(
                    await asyncio.wait_for(reader.readline(), 10.0)
                )
                assert isinstance(reply, ErrorReply)
                assert reply.code == "protocol"
                assert str(WIRE_LINE_LIMIT) in reply.message
                assert await asyncio.wait_for(reader.read(), 10.0) == b""
            finally:
                writer.close()
            # The server keeps serving other connections.
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                assert (await client.status()).submitted == 0

        _serve(_go)
        assert unhandled == []

    def test_oversize_frame_with_a_decision_in_flight(self):
        # Regression: the refusal half-closed the writer while the
        # connection still owned a pending ticket, so deciding that
        # ticket during the refusal wrote after write_eof() and the
        # RuntimeError killed the epoch loop for every client.
        unhandled = []
        hold = [True]

        async def _go(server):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            # Keep the first submit undecided until the refusal is under
            # way, as a re-queued cross-region request would be.
            run_epoch = server.coordinator.run_epoch
            server.coordinator.run_epoch = (
                lambda: SimpleNamespace(decided=()) if hold[0] else run_epoch()
            )
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=WIRE_LINE_LIMIT
            )
            try:
                writer.write(encode(SubmitRequest.from_request(
                    _gr("held"), seq=1
                )))
                await writer.drain()
                assert isinstance(decode(await reader.readline()), SubmitReply)
                writer.write(b"x" * (WIRE_LINE_LIMIT + 1) + b"\n")
                await writer.drain()
                reply = decode(await asyncio.wait_for(reader.readline(), 10.0))
                assert isinstance(reply, ErrorReply)
                assert reply.code == "protocol"
                # The refused session is still draining its input; the
                # held ticket is decided now, with nowhere to go.
                hold[0] = False
                async with await SparcleClient.open(
                    server.host, server.port
                ) as client:
                    await client.submit(_gr("other", src="ncp3", dst="ncp4"))
                    decision = await asyncio.wait_for(
                        client.decision("other"), 10.0
                    )
                    assert decision.accepted
                assert await asyncio.wait_for(reader.read(), 10.0) == b""
            finally:
                writer.close()
            # Committed, then retired unsent: its client was gone.
            assert any(
                "held" in node.live_apps() for node in server.coordinator.nodes
            )
            assert server.coordinator.decision_for(0) is None
            assert server.coordinator.decisions_held == 0

        _serve(_go)
        assert unhandled == []

    def test_error_reply_maps_to_typed_exception(self):
        from repro.service.client import error_to_exception

        assert isinstance(
            error_to_exception(ErrorReply(code="backpressure", message="x")),
            BackpressureError,
        )
        assert isinstance(
            error_to_exception(ErrorReply(code="protocol", message="x")),
            ProtocolError,
        )
        assert isinstance(
            error_to_exception(ErrorReply(code="unknown", message="x")),
            ServerError,
        )


class TestDrain:
    def test_wire_drain_decides_queued_work_and_stops(self):
        async def _go(server):
            client = await SparcleClient.open(server.host, server.port)
            ticket = await client.submit(_gr("d1"))
            reply = await client.drain()
            # The queued submit was decided synchronously by the drain
            # (unless the epoch loop beat the drain to it).
            assert reply.decided in (0, 1)
            assert reply.epochs >= reply.decided
            # The decision line precedes the drain reply on the wire.
            assert client.decisions["d1"].accepted
            await client.close()
            await server.wait_closed()
            # Written, so retired: no layer holds it any more.
            assert server.coordinator.decision_for(ticket) is None
            assert server.coordinator.decisions_held == 0

        _serve(_go)

    def test_submit_while_draining_is_refused(self):
        async def _go(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=WIRE_LINE_LIMIT
            )
            try:
                # Drain and a submit land in one segment: the submit is
                # processed after the drain flipped the flag.
                drain_line = b'{"v": 1, "type": "drain", "seq": 1}\n'
                submit_line = encode(
                    SubmitRequest.from_request(_gr("late"), seq=2)
                )
                writer.write(drain_line + submit_line)
                await writer.drain()
                replies = [
                    decode(await reader.readline()) for _ in range(2)
                ]
                errors = [r for r in replies if isinstance(r, ErrorReply)]
                assert len(errors) == 1
                assert errors[0].code == "draining"
            finally:
                writer.close()

        _serve(_go)


class TestHttp:
    def test_metrics_healthz_and_404(self):
        async def _go(server):
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                await client.submit(_gr("m1"))
                await client.decision("m1")
            body = await scrape_metrics(server.host, server.port)
            assert "sparcle_server_accepted" in body
            assert "sparcle_server_requests" in body
            assert 'sparcle_server_decisions{outcome="accepted"}' in body

            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert raw.startswith(b"HTTP/1.1 200")
            assert raw.endswith(b"ok\n")

            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(b"GET /nope HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert raw.startswith(b"HTTP/1.1 404")

        _serve(_go)

    def test_metrics_export_event_log_series_per_log(self, tmp_path):
        log_dir = tmp_path / "logs"
        series = (
            "shard.log_bytes",
            "shard.log_records_since_checkpoint",
            "shard.log_torn_records",
        )

        async def _go(server):
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                await client.submit(_gr("m1"))
                await client.decision("m1")
            body = await scrape_metrics(server.host, server.port)
            page = {
                line.rpartition(" ")[0]: float(line.rpartition(" ")[2])
                for line in body.splitlines()
                if line and not line.startswith("#")
            }
            logs = server.coordinator.event_logs()
            assert sorted(logs) == ["coordinator", "shard-0", "shard-1"]
            since = "sparcle_shard_log_records_since_checkpoint"
            for label, log in logs.items():
                size = (log_dir / f"{label}.jsonl").stat().st_size
                assert page[f'sparcle_shard_log_bytes{{shard="{label}"}}'] == size
                assert page[f'sparcle_shard_log_torn_records{{shard="{label}"}}'] == 0
                # Every record after a fresh log's opening snapshot.
                assert page[f'{since}{{shard="{label}"}}'] == len(log) - 1
            assert sum(len(log) - 1 for log in logs.values()) >= 1

        _serve(_go, n_shards=2, log_dir=log_dir)
        # The series are documented where the others are.
        docs = (
            Path(__file__).resolve().parents[2] / "docs" / "observability.md"
        ).read_text()
        for name in series:
            assert f"`{name}{{shard}}`" in docs

    def test_torn_final_record_is_counted_not_fatal(self, tmp_path):
        log_dir = tmp_path / "logs"

        async def _admit(server):
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                await client.submit(_gr("kept"))
                assert (await client.decision("kept")).accepted

        _serve(_admit, n_shards=1, log_dir=log_dir)
        with open(log_dir / "shard-0.jsonl", "a") as handle:
            handle.write('{"seq": 9, "type": "epoch", "decisions": [{"app')
        registry = PerfRegistry()

        async def _recovered(server):
            assert server.recovered == 1
            assert registry.get(
                "shard.log_torn_records", shard="shard-0"
            ) == 1
            assert registry.get(
                "shard.log_torn_records", shard="coordinator"
            ) == 0

        _serve(
            _recovered, n_shards=1, log_dir=log_dir, recover=True,
            registry=registry,
        )

    def test_head_request_omits_body(self):
        async def _go(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(b"HEAD /metrics HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200")
            assert body == b""

        _serve(_go)


class TestRecovery:
    def test_a_written_log_dir_is_refused_without_recover(
        self, tmp_path, capsys
    ):
        """Appending to an earlier process's logs would log apps this
        process never held, and a later recover would hold their
        capacity twice: without ``recover`` the server refuses them."""
        logs = tmp_path / "logs"
        shutil.copytree(DATA / "parent_logs" / "one_shard", logs)
        before = {p.name: p.read_bytes() for p in logs.iterdir()}
        with pytest.raises(ServerError, match="--recover") as refused:
            SparcleServer(_network(), n_shards=1, log_dir=logs)
        assert str(logs) in str(refused.value)
        code = main([
            "serve", str(DATA / "smoke_scenario.json"), "--shards", "1",
            "--burst", "4", "--log-dir", str(logs),
        ])
        assert code != 0
        assert "--recover" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in logs.iterdir()} == before

    def test_kill_and_recover_rejects_double_admission(self, tmp_path):
        log_dir = tmp_path / "logs"
        log_dir.mkdir()
        registry = PerfRegistry()

        async def _run():
            server = SparcleServer(
                _network(), log_dir=log_dir, epoch_interval=0.005,
                registry=registry,
            )
            await server.start()
            client = await SparcleClient.open(server.host, server.port)
            for i in range(3):
                await client.submit(_gr(f"app{i}"))
            pre = {}
            for i in range(3):
                pre[f"app{i}"] = await client.decision(f"app{i}")
            await server.abort()  # crash: no drain
            await client.close()

            pre_logs = {
                p.name: p.read_bytes() for p in log_dir.glob("*.jsonl")
            }
            server2 = SparcleServer(
                _network(), log_dir=log_dir, recover=True,
                epoch_interval=0.005, registry=registry,
            )
            await server2.start()
            accepted_pre = [
                a for a, d in pre.items() if d.accepted
            ]
            assert server2.recovered == len(accepted_pre)
            client2 = await SparcleClient.open(server2.host, server2.port)
            for app_id in accepted_pre:
                with pytest.raises(AdmissionError):
                    await client2.submit(_gr(app_id))
            # Fresh traffic is admitted normally after recovery.
            await client2.submit(_gr("fresh"))
            fresh = await client2.decision("fresh")
            assert fresh.accepted
            status = await client2.status()
            assert status.recovered == len(accepted_pre)
            await client2.close()
            await server2.shutdown()

            # Recovery compacted each shard log to one checkpoint that
            # alone replays to what the whole pre-kill log replayed to.
            for name, pre_bytes in pre_logs.items():
                if not name.startswith("shard-"):
                    continue
                post = (log_dir / name).read_text().splitlines()
                pre = [json.loads(line) for line in pre_bytes.splitlines()]
                assert replay_log([json.loads(post[0])]) == replay_log(pre)

        asyncio.run(_run())


class TestClientEdgeCases:
    def test_client_submit_after_close_raises(self):
        async def _go(server):
            client = await SparcleClient.open(server.host, server.port)
            await client.close()
            with pytest.raises(ServerError, match="closed"):
                await client.submit(_gr("x"))

        _serve(_go)

    def test_server_vanishing_fails_waiters(self):
        async def _go(server):
            client = await SparcleClient.open(server.host, server.port)
            await client.submit(_be("gone", priority=1.0))
            await server.abort()
            with pytest.raises((ConnectionError, ServerError)):
                # The decision may have been pushed before the abort;
                # if so, a second, never-decided app must fail instead.
                if "gone" not in client.decisions:
                    await client.decision("gone")
                else:
                    raise ConnectionResetError("decided before abort")
            await client.close()

        _serve(_go)


class TestServeEntryPoint:
    def test_blocking_serve_runs_until_wire_drain(self, capsys):
        """The CLI's blocking entry: serve() in a worker thread, drain it
        over the wire, and join the thread."""
        import queue as _queue
        import threading
        import time

        from repro.service.server import serve

        ready: asyncio.Queue[int] = asyncio.Queue()
        thread = threading.Thread(
            target=serve,
            args=(_network(),),
            kwargs={"port": 0, "n_shards": 1, "ready": ready},
            daemon=True,
        )
        thread.start()
        port = None
        for _ in range(400):
            try:
                port = ready.get_nowait()
                break
            except asyncio.QueueEmpty:
                time.sleep(0.005)
        assert port is not None, "serve() never published its port"

        async def _drive():
            async with await SparcleClient.open("127.0.0.1", port) as client:
                await client.submit(_gr("one"))
                decision = await client.decision("one")
                assert decision.accepted
                await client.drain()

        asyncio.run(_drive())
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert "listening on" in capsys.readouterr().out
