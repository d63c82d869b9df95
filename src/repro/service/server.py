"""Asyncio serving front-end over the sharded control plane.

:class:`SparcleServer` turns the in-process admission machinery — a
:class:`~repro.service.shard.ShardCoordinator` federation, one region
when ``n_shards=1`` — into a long-running network service speaking the
versioned JSON-lines protocol of :mod:`repro.service.protocol` (the
paper's Fig.-3 admission controller as an online system instead of batch
replay).

Design
------
*One port, two protocols.*  A connection whose first line starts with
``GET `` or ``HEAD `` is served as minimal HTTP — ``/metrics`` renders
the Prometheus text exposition from :func:`repro.perf.exporters
.prometheus_snapshot` and ``/healthz`` reports liveness — then closed.
Anything else is a JSON-lines session: one request object per line in,
one reply object per line out, plus asynchronously pushed
:class:`~repro.service.protocol.DecisionReply` lines when the epoch loop
decides a submitted application.

*The coordinator stays single-threaded.*  It is explicitly not
thread-safe: submits, epochs, and drains must come from one thread.
Every coordinator call here runs synchronously on the event loop (no
``await`` between entering and leaving it), so concurrent client
connections are multiplexed onto the same single-threaded control-loop
contract the in-process API has.

*Backpressure is layered.*  Each connection has a bounded inflight
window (``max_inflight`` submits awaiting decisions); past it, submits
are shed with an ``ErrorReply(code="backpressure")`` before they reach
the coordinator — the same treatment the coordinator's own
:class:`~repro.exceptions.BackpressureError` (bounded arrival queue)
receives.  Shed requests were never enqueued; clients resubmit.

*Recovery is the event log.*  ``recover=True`` warm-starts every shard
from its :class:`~repro.service.shard.ShardEventLog` (and the
coordinator from its own log) **before** the listening socket opens, so
a restarted server re-holds every committed reservation and keeps
rejecting admitted app ids as duplicates — zero double-admissions across
a crash.  Queued-but-undecided requests are not replayed (the logs are
decision logs); clients detect the dropped connection and resubmit.

Observability: ``server.*`` counters (``accepted``/``shed``/
``recovered``/``inflight``/...) land in the
metrics registry (:func:`~repro.perf.get_metrics`) and therefore in
``/metrics`` as ``sparcle_server_*``, next to the per-log
``shard.log_bytes`` / ``shard.log_records_since_checkpoint`` gauges and
the ``shard.log_torn_records`` counter; per-connection trace spans are
emitted when a tracer is installed.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from repro.core.assignment import sparcle_assign
from repro.core.network import Network
from repro.core.repair import RetryPolicy
from repro.core.scheduler import Assigner, Decision
from repro.exceptions import (
    AdmissionError,
    BackpressureError,
    ProtocolError,
    ServerError,
    ShardError,
    SparcleError,
)
from repro.perf import PerfRegistry, get_metrics, tracing
from repro.perf.exporters import prometheus_snapshot
from repro.service.gateway import MAX_DRAIN_EPOCHS
from repro.service.protocol import (
    PROTOCOL_VERSION,
    WIRE_LINE_LIMIT,
    DecisionReply,
    DrainReply,
    DrainRequest,
    ErrorReply,
    Message,
    StatusReply,
    StatusRequest,
    SubmitReply,
    SubmitRequest,
    TopologyReply,
    TopologyRequest,
    WithdrawReply,
    WithdrawRequest,
    parse_request,
)
from repro.service.protocol import encode as encode_message
from repro.service.shard import ShardCoordinator


# ----------------------------------------------------------------------
# Connection bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _Connection:
    """One live JSON-lines session and its inflight window."""

    conn_id: int
    writer: asyncio.StreamWriter
    inflight: int = 0
    requests: int = 0

    def send(self, message: Message) -> None:
        if not self.writer.is_closing():
            self.writer.write(encode_message(message))


@dataclass(frozen=True)
class _PendingDecision:
    """Where one coordinator ticket's decision must be delivered."""

    conn: _Connection
    seq: int
    app_id: str


_HTTP_OK = (
    "HTTP/1.1 200 OK\r\n"
    "Content-Type: {ctype}\r\n"
    "Content-Length: {length}\r\n"
    "Connection: close\r\n\r\n"
)
_HTTP_NOT_FOUND = (
    "HTTP/1.1 404 Not Found\r\n"
    "Content-Length: 0\r\n"
    "Connection: close\r\n\r\n"
)


class SparcleServer:
    """The serving front-end; see the module docstring for the design.

    Construct, then ``await start()`` (binds the socket, recovers state
    when asked), then ``await wait_closed()`` — or use it as an async
    context manager.  ``port=0`` binds an ephemeral port, published as
    ``self.port`` after :meth:`start`.

    ``epoch_interval`` is an idle heartbeat, not a batching window: a
    submit wakes the epoch loop at once and a local-lane request is
    decided in the epoch that pops it.  The timer only matters to what an
    epoch leaves queued — cross-region requests backing off after a
    two-phase conflict.  ``retry_policy`` is that lane's retry budget.
    """

    def __init__(
        self,
        network: Network,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        n_shards: int = 2,
        zones: Mapping[str, int] | None = None,
        assigner: Assigner = sparcle_assign,
        max_queue_depth: int = 128,
        batch_size: int | None = None,
        retry_policy: RetryPolicy | None = None,
        log_dir: str | Path | None = None,
        max_inflight: int = 8,
        epoch_interval: float = 0.02,
        recover: bool = False,
        install_signal_handlers: bool = False,
        registry: PerfRegistry | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ServerError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if epoch_interval <= 0:
            raise ServerError(
                f"epoch_interval must be positive, got {epoch_interval}"
            )
        self.network = network
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.epoch_interval = epoch_interval
        self._recover_requested = recover
        self._install_signals = install_signal_handlers
        self._metrics = registry if registry is not None else get_metrics()
        if recover and log_dir is None:
            raise ServerError(
                "recover requires a durable log_dir: without one there is "
                "no ShardEventLog to warm-start from"
            )
        self.coordinator = ShardCoordinator(
            network,
            n_shards=n_shards,
            zones=zones,
            assigner=assigner,
            max_queue_depth=max_queue_depth,
            batch_size=batch_size,
            cross_retry_policy=retry_policy,
            log_dir=log_dir,
        )
        for label, log in self.coordinator.event_logs().items():
            self._metrics.incr(
                "shard.log_torn_records", log.torn_records, shard=label
            )
        self._server: asyncio.Server | None = None
        self._epoch_task: asyncio.Task[None] | None = None
        self._shutdown_task: asyncio.Task[None] | None = None
        self._wakeup = asyncio.Event()
        self._closed = asyncio.Event()
        self._connections: dict[int, _Connection] = {}
        self._session_tasks: set[asyncio.Task[None]] = set()
        self._pending: dict[int, _PendingDecision] = {}
        self._conn_seq = 0
        self._draining = False
        self._stopping = False
        self.recovered = 0
        # Running totals mirrored into the metrics registry.
        self._submitted = 0
        self._accepted_decisions = 0
        self._rejected_decisions = 0
        self._shed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "SparcleServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.shutdown()

    async def start(self) -> None:
        """Recover state (when asked), bind, and start the epoch loop."""
        if self._server is not None:
            raise ServerError("server already started")
        if self._recover_requested:
            self.recovered = self.coordinator.recover()
            self._metrics.incr("server.recovered", self.recovered)
            tr = tracing.get_tracer()
            if tr.enabled:
                tr.event("server.recover", apps=self.recovered)
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=WIRE_LINE_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                # NotImplementedError on platforms without signal support;
                # ValueError/RuntimeError off the main thread.
                with contextlib.suppress(
                    NotImplementedError, ValueError, RuntimeError
                ):
                    loop.add_signal_handler(signum, self._on_signal)
        self._epoch_task = asyncio.get_running_loop().create_task(
            self._epoch_loop()
        )

    def _on_signal(self) -> None:
        self._begin_shutdown(drain=True)

    def _begin_shutdown(self, *, drain: bool) -> None:
        """Schedule :meth:`shutdown` exactly once from synchronous code.

        The task reference is retained on the server (so it cannot be
        garbage-collected mid-shutdown) and its exception, if any, is
        surfaced through the metrics registry and stderr instead of
        vanishing with the task object.
        """
        if self._shutdown_task is not None and not self._shutdown_task.done():
            return
        task = asyncio.get_running_loop().create_task(
            self.shutdown(drain=drain)
        )
        self._shutdown_task = task

        def _report(done: asyncio.Task[None]) -> None:
            if done.cancelled():
                return
            error = done.exception()
            if error is not None:
                self._metrics.incr("server.shutdown_errors")
                print(
                    f"sparcle-server: shutdown failed: {error!r}",
                    file=sys.stderr,
                )

        task.add_done_callback(_report)

    async def wait_closed(self) -> None:
        """Block until the server has fully shut down."""
        await self._closed.wait()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop serving; with ``drain`` (default) decide queued work first.

        ``drain=False`` is the crash path the chaos harness uses: the
        socket closes immediately, queued requests are lost, and the
        event logs end exactly where the last epoch left them — recovery
        must replay from there.
        """
        if self._stopping:
            await self._closed.wait()
            return
        self._stopping = True
        self._draining = True
        if drain:
            self._drain_coordinator()
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(OSError):
                await self._server.wait_closed()
        if self._epoch_task is not None:
            self._wakeup.set()
            self._epoch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._epoch_task
        for conn in list(self._connections.values()):
            with contextlib.suppress(OSError):
                if not conn.writer.is_closing():
                    conn.writer.close()
        # Let session handlers observe the EOF their closed writers imply
        # so loop teardown never cancels them mid-read.
        pending_tasks = {
            task
            for task in self._session_tasks
            if task is not asyncio.current_task()
        }
        if pending_tasks:
            await asyncio.wait(pending_tasks, timeout=1.0)
        self.coordinator.close()
        self._closed.set()

    async def abort(self) -> None:
        """Hard-kill the server without draining (chaos crash path)."""
        await self.shutdown(drain=False)

    # ------------------------------------------------------------------
    # Epoch loop
    # ------------------------------------------------------------------
    async def _epoch_loop(self) -> None:
        """Run one coordinator epoch per wakeup (or idle heartbeat).

        Every accepted submit sets ``_wakeup``, so no local-lane request
        waits for ``epoch_interval``; the timeout exists so cross-region
        requests re-queued with an epoch-counted backoff are retried
        while no new submit arrives.
        """
        while not self._stopping:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._wakeup.wait(), timeout=self.epoch_interval
                )
            self._wakeup.clear()
            if self._stopping:
                return
            if self.coordinator.queue_depth > 0:
                self._flush_decisions(self.coordinator.run_epoch().decided)
                await self._drain_writers()

    def _drain_coordinator(self) -> tuple[int, int]:
        """Synchronously decide everything still queued; (decided, epochs)."""
        decided = 0
        epochs = 0
        for _ in range(MAX_DRAIN_EPOCHS):
            if self.coordinator.queue_depth == 0:
                break
            report = self.coordinator.run_epoch()
            epochs += 1
            decided += self._flush_decisions(report.decided)
        return decided, epochs

    def _flush_decisions(
        self, decided: Sequence[tuple[int, Decision]]
    ) -> int:
        """Push one epoch's decisions to their connections, then retire them.

        Sent in ticket (submit) order.  A decision whose client has
        disconnected is retired unsent: it was committed and logged, and
        has nowhere to go.
        """
        flushed = 0
        for ticket, decision in sorted(decided, key=itemgetter(0)):
            pending = self._pending.pop(ticket, None)
            if pending is None:
                self.coordinator.retire(ticket)
                continue
            pending.conn.inflight -= 1
            flushed += 1
            if decision.accepted:
                self._accepted_decisions += 1
                self._metrics.incr("server.decisions", outcome="accepted")
            else:
                self._rejected_decisions += 1
                self._metrics.incr("server.decisions", outcome="rejected")
            pending.conn.send(
                DecisionReply.from_decision(decision, seq=pending.seq)
            )
            self.coordinator.retire(ticket)
        if flushed:
            self._metrics.set_gauge(
                "server.inflight", float(self._total_inflight())
            )
        return flushed

    async def _drain_writers(self) -> None:
        for conn in list(self._connections.values()):
            if not conn.writer.is_closing():
                with contextlib.suppress(ConnectionError):
                    await conn.writer.drain()

    def _total_inflight(self) -> int:
        return sum(conn.inflight for conn in self._connections.values())

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._session_tasks.add(task)
        try:
            try:
                first = await reader.readline()
            except ConnectionError:
                first = b""
            except ValueError:  # the line overran WIRE_LINE_LIMIT
                await self._refuse_oversize(reader, writer)
                return
            if not first:
                writer.close()
                return
            if first.startswith(b"GET ") or first.startswith(b"HEAD "):
                await self._handle_http(first, reader, writer)
                return
            await self._handle_session(first, reader, writer)
        finally:
            if task is not None:
                self._session_tasks.discard(task)

    async def _handle_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP: ``/metrics`` (Prometheus text) and ``/healthz``."""
        try:
            while True:  # swallow the header block
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            target = parts[1] if len(parts) >= 2 else "/"
            if target.split("?", 1)[0] == "/metrics":
                self._export_log_gauges()
                body = prometheus_snapshot(labeled=self._metrics)
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif target.split("?", 1)[0] == "/healthz":
                body = "draining\n" if self._draining else "ok\n"
                ctype = "text/plain; charset=utf-8"
            else:
                writer.write(_HTTP_NOT_FOUND.encode("latin-1"))
                await writer.drain()
                return
            payload = body.encode("utf-8")
            head = _HTTP_OK.format(ctype=ctype, length=len(payload))
            writer.write(head.encode("latin-1"))
            if not request_line.startswith(b"HEAD "):
                writer.write(payload)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            with contextlib.suppress(OSError):
                writer.close()

    @staticmethod
    async def _refuse_oversize(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer a line longer than the wire frame limit, then hang up.

        The rest of the line cannot be resynchronised on, so the session
        ends: a ``protocol`` error, end-of-file, and whatever the peer
        still sends (for up to a second) is read and dropped so closing
        the socket does not reset the connection under the reply.
        """
        error = ErrorReply(
            code="protocol",
            message=(
                f"wire line exceeds the {WIRE_LINE_LIMIT}-byte frame "
                "limit; closing the session"
            ),
        )

        async def _discard() -> None:
            while await reader.read(1 << 16):
                pass

        with contextlib.suppress(ConnectionError):
            writer.write(encode_message(error))
            await writer.drain()
            if writer.can_write_eof():
                writer.write_eof()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(_discard(), 1.0)
        with contextlib.suppress(OSError):
            writer.close()

    def _export_log_gauges(self) -> None:
        """Read the event-log sizes at scrape time (nothing on the hot path)."""
        for label, log in self.coordinator.event_logs().items():
            self._metrics.set_gauge(
                "shard.log_bytes", float(log.size_bytes), shard=label
            )
            self._metrics.set_gauge(
                "shard.log_records_since_checkpoint",
                float(log.records_since_checkpoint),
                shard=label,
            )

    async def _handle_session(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._conn_seq += 1
        conn = _Connection(self._conn_seq, writer)
        self._connections[conn.conn_id] = conn
        self._metrics.set_gauge(
            "server.connections", float(len(self._connections))
        )
        tr = tracing.get_tracer()
        span = (
            tr.span("server.connection", conn=conn.conn_id)
            if tr.enabled
            else contextlib.nullcontext({})
        )
        oversize = False
        try:
            with span as fields:
                line = first_line
                while line:
                    self._handle_line(conn, line)
                    with contextlib.suppress(ConnectionError):
                        await writer.drain()
                    if self._stopping:
                        break
                    try:
                        line = await reader.readline()
                    except ConnectionError:
                        break
                    except ValueError:  # overran WIRE_LINE_LIMIT
                        oversize = True
                        break
                if isinstance(fields, dict):
                    fields["requests"] = conn.requests
        finally:
            self._connections.pop(conn.conn_id, None)
            # Decisions for a vanished client are still committed (and
            # logged); they just have nowhere to be delivered, so
            # _flush_decisions retires them unsent.
            for ticket, pending in list(self._pending.items()):
                if pending.conn is conn:
                    del self._pending[ticket]
            self._metrics.set_gauge(
                "server.connections", float(len(self._connections))
            )
            self._metrics.set_gauge(
                "server.inflight", float(self._total_inflight())
            )
            # Refused only once out of service: no decision can be sent
            # to the half-closed writer.
            if oversize:
                await self._refuse_oversize(reader, writer)
            with contextlib.suppress(OSError):
                writer.close()

    # ------------------------------------------------------------------
    # Request dispatch (synchronous: the coordinator's contract)
    # ------------------------------------------------------------------
    def _handle_line(self, conn: _Connection, line: bytes) -> None:
        if not line.strip():
            return
        conn.requests += 1
        self._metrics.incr("server.requests")
        try:
            message = parse_request(line)
        except ProtocolError as error:
            conn.send(ErrorReply(code="protocol", message=str(error)))
            return
        reply: Message
        if isinstance(message, SubmitRequest):
            reply = self._handle_submit(conn, message)
        elif isinstance(message, WithdrawRequest):
            reply = self._handle_withdraw(message)
        elif isinstance(message, StatusRequest):
            reply = self._status_reply(message.seq)
        elif isinstance(message, TopologyRequest):
            reply = TopologyReply(
                shards=tuple(
                    {
                        "shard": node.shard_id,
                        "ncps": len(node.network.ncps),
                        "alive": node.alive,
                        "apps": len(node.live_apps()),
                    }
                    for node in self.coordinator.nodes
                ),
                boundary_links=len(
                    self.coordinator.partition.boundary_links
                ),
                seq=message.seq,
            )
        else:
            assert isinstance(message, DrainRequest)
            reply = self._handle_drain(message)
        conn.send(reply)

    def _handle_submit(
        self, conn: _Connection, message: SubmitRequest
    ) -> Message:
        if self._draining:
            return ErrorReply(
                code="draining",
                message="server is draining; no new submits",
                app_id=message.app_id,
                seq=message.seq,
            )
        if conn.inflight >= self.max_inflight:
            self._shed += 1
            self._metrics.incr("server.shed", reason="inflight")
            return ErrorReply(
                code="backpressure",
                message=(
                    f"inflight window full ({self.max_inflight}); "
                    f"await a decision before resubmitting"
                ),
                app_id=message.app_id,
                seq=message.seq,
            )
        try:
            ticket = self.coordinator.submit(message)
        except BackpressureError as error:
            self._shed += 1
            self._metrics.incr("server.shed", reason="queue")
            return ErrorReply(
                code="backpressure",
                message=str(error),
                app_id=message.app_id,
                seq=message.seq,
            )
        except AdmissionError as error:
            code = "duplicate" if "already" in str(error) else "admission"
            return ErrorReply(
                code=code,
                message=str(error),
                app_id=message.app_id,
                seq=message.seq,
            )
        except ProtocolError as error:
            return ErrorReply(
                code="protocol",
                message=str(error),
                app_id=message.app_id,
                seq=message.seq,
            )
        except ShardError as error:
            return ErrorReply(
                code="shard",
                message=str(error),
                app_id=message.app_id,
                seq=message.seq,
            )
        conn.inflight += 1
        self._submitted += 1
        self._pending[ticket] = _PendingDecision(
            conn, message.seq, message.app_id
        )
        self._metrics.incr("server.accepted")
        self._metrics.set_gauge(
            "server.inflight", float(self._total_inflight())
        )
        self._wakeup.set()
        return SubmitReply(
            app_id=message.app_id, ticket=ticket, seq=message.seq
        )

    def _handle_withdraw(self, message: WithdrawRequest) -> Message:
        try:
            self.coordinator.withdraw(message.app_id)
        except SparcleError as error:
            return ErrorReply(
                code="admission",
                message=str(error),
                app_id=message.app_id,
                seq=message.seq,
            )
        self._metrics.incr("server.withdrawn")
        return WithdrawReply(app_id=message.app_id, seq=message.seq)

    def _handle_drain(self, message: DrainRequest) -> Message:
        self._draining = True
        decided, epochs = self._drain_coordinator()
        self._begin_shutdown(drain=False)
        return DrainReply(decided=decided, epochs=epochs, seq=message.seq)

    def _status_reply(self, seq: int) -> StatusReply:
        return StatusReply(
            protocol_version=PROTOCOL_VERSION,
            backend="shards",
            submitted=self._submitted,
            accepted=self._accepted_decisions,
            rejected=self._rejected_decisions,
            shed=self._shed,
            recovered=self.recovered,
            inflight=self._total_inflight(),
            queue_depth=self.coordinator.queue_depth,
            epoch=self.coordinator.epoch,
            draining=self._draining,
            seq=seq,
        )


def serve(
    network: Network,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    n_shards: int = 2,
    zones: Mapping[str, int] | None = None,
    assigner: Assigner = sparcle_assign,
    max_queue_depth: int = 128,
    log_dir: str | Path | None = None,
    max_inflight: int = 8,
    recover: bool = False,
    ready: asyncio.Queue[int] | None = None,
) -> None:
    """Run a :class:`SparcleServer` until SIGTERM/SIGINT drains it.

    The synchronous convenience entry the CLI uses: builds the server,
    installs the signal handlers, and blocks until a graceful drain
    (signal or wire :class:`~repro.service.protocol.DrainRequest`)
    completes.  ``ready``, if given, receives the bound port once the
    socket is listening — callers that asked for ``port=0`` learn the
    ephemeral port from it.
    """

    async def _run() -> None:
        server = SparcleServer(
            network,
            host=host,
            port=port,
            n_shards=n_shards,
            zones=zones,
            assigner=assigner,
            max_queue_depth=max_queue_depth,
            log_dir=log_dir,
            max_inflight=max_inflight,
            recover=recover,
            install_signal_handlers=True,
        )
        await server.start()
        if ready is not None:
            ready.put_nowait(server.port)
        print(
            f"sparcle serve: listening on {server.host}:{server.port} "
            f"({len(server.coordinator.nodes)} shards, "
            f"protocol v{PROTOCOL_VERSION})"
        )
        await server.wait_closed()

    asyncio.run(_run())
