"""Drive the real server over the JSON-lines wire and measure it from outside.

The system under test is ``python -m repro serve <scenario> --port 0
--shards N --log-dir DIR`` as a subprocess.  Everything here observes it
through public surfaces only: the wire protocol (via the repo's own
:class:`~repro.service.client.SparcleClient`), ``/metrics``, the
``status``/``topology`` requests and ``/proc/<pid>``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.exceptions import BackpressureError, SparcleError
from repro.service.client import SparcleClient, scrape_metrics
from repro.service.protocol import (
    DecisionReply,
    StatusReply,
    SubmitRequest,
    TopologyReply,
)

from workloads import Inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A window is cut into this many equal-count segments; the timing metrics
#: are medians over them, so a machine stall covering fewer than three of
#: the five does not move them.
SEGMENTS = 5
#: Per-connection inflight window of the server.  Above the default 8 so
#: that a machine stall in the open loop shows as latency, not as sheds.
MAX_INFLIGHT = 64
#: Seconds a server may take to print its listening line.
START_TIMEOUT_S = 60.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``sparcle serve`` subprocess and its ``/proc`` readings."""

    def __init__(
        self, scenario: Path, shards: int, log_dir: Path, *, recover: bool = False
    ) -> None:
        self._argv = [
            sys.executable, "-u", "-m", "repro", "serve", str(scenario),
            "--port", "0", "--shards", str(shards), "--log-dir", str(log_dir),
            "--max-inflight", str(MAX_INFLIGHT),
        ]
        if recover:
            self._argv.append("--recover")
        self._stderr_path = log_dir.parent / f"{log_dir.name}.stderr"
        self._proc: asyncio.subprocess.Process | None = None
        self.port = 0

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    async def start(self) -> float:
        """Spawn and wait for the listening line; seconds it took."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        began = time.perf_counter()
        with open(self._stderr_path, "wb") as stderr:
            self._proc = await asyncio.create_subprocess_exec(
                *self._argv, cwd=str(ROOT), env=env,
                stdout=asyncio.subprocess.PIPE, stderr=stderr,
            )
        assert self._proc.stdout is not None
        try:
            while True:
                line = await asyncio.wait_for(
                    self._proc.stdout.readline(), START_TIMEOUT_S
                )
                if not line:
                    raise RuntimeError(
                        "server exited before listening: "
                        + self._stderr_path.read_text(errors="replace")[-2000:]
                    )
                if b"listening on" in line:
                    self.port = int(line.split(b"listening on ")[1]
                                    .split()[0].rsplit(b":", 1)[1])
                    return time.perf_counter() - began
        except BaseException:  # sparcle: ignore[SPC006] reraised; the child must not outlive a failed or cancelled start
            await self.kill()
            raise

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def kill(self) -> None:
        """SIGKILL the server and wait until it has ended."""
        if self._proc is None:
            return
        if self._proc.returncode is None:
            try:
                self._proc.send_signal(signal.SIGKILL)
            except ProcessLookupError:
                pass
        await self._proc.wait()


# ----------------------------------------------------------------------
# What a window records
# ----------------------------------------------------------------------
class Decided(NamedTuple):
    """One submit that got its decision, with the three instants around it."""

    request: SubmitRequest
    decision: DecisionReply
    began: float  # sent (closed loop) or due (open loop)
    acked: float
    decided: float

    @property
    def latency_ms(self) -> float:
        return (self.decided - self.began) * 1e3


@dataclass
class WindowRecord:
    """Raw observations of one measured window."""

    attempted: int = 0
    shed: int = 0  # backpressure errors the client saw
    errors: int = 0  # any other error reply to a submit
    undecided: int = 0  # submitted but no decision by the end
    #: in the order the decisions arrived
    decided: list[Decided] = field(default_factory=list)
    #: (time, server CPU seconds, decisions so far) every ``mark_every``
    #: decisions: the window cut into equal-count segments
    marks: list[tuple[float, float, int]] = field(default_factory=list)
    mark_every: int = 1
    server_cpu: Callable[[], float] = time.process_time
    withdraw_ms: list[float] = field(default_factory=list)
    withdrawn: list[str] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)  # open loop only
    wall_s: float = 0.0
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def failed(self) -> int:
        return self.shed + self.errors + self.undecided

    def live(self) -> set[str]:
        """Apps accepted and not withdrawn, as the client saw them."""
        alive = {d.request.app_id for d in self.decided if d.decision.accepted}
        return alive - set(self.withdrawn)

    def latency_ms(self) -> list[float]:
        return [d.latency_ms for d in self.decided]

    def outcomes(self) -> list[tuple[bool, tuple[float, ...]]]:
        """(accepted, path rates) per decision: what a replay must equal."""
        return [
            (d.decision.accepted, d.decision.path_rates) for d in self.decided
        ]

    def segments(self) -> list["Segment"]:
        """The window cut at the marks, each with its own observations."""
        latencies = self.latency_ms()
        share = len(self.withdraw_ms) / max(1, len(self.decided))
        return [
            Segment(
                decisions_per_s=(n1 - n0) / (t1 - t0),
                server_cpu_ms=(c1 - c0) * 1e3 / (n1 - n0),
                latency_ms=latencies[n0:n1],
                withdraw_ms=self.withdraw_ms[int(n0 * share):int(n1 * share)],
            )
            for (t0, c0, n0), (t1, c1, n1) in zip(self.marks, self.marks[1:])
        ]


@dataclass(frozen=True)
class Segment:
    """One equal-count slice of a window, in decision order."""

    decisions_per_s: float
    server_cpu_ms: float  # per decision
    latency_ms: list[float]
    withdraw_ms: list[float]


async def _submit_and_await(
    client: SparcleClient,
    request: SubmitRequest,
    began: float,
    record: WindowRecord,
) -> DecisionReply | None:
    record.attempted += 1
    try:
        await client.submit(request)
    except BackpressureError:
        record.shed += 1
        return None
    except SparcleError:
        record.errors += 1
        return None
    acked = time.perf_counter()
    record.undecided += 1
    decision = await client.decision(request.app_id)
    record.undecided -= 1
    now = time.perf_counter()
    record.decided.append(Decided(request, decision, began, acked, now))
    if len(record.decided) % record.mark_every == 0:
        record.marks.append((now, record.server_cpu(), len(record.decided)))
    return decision


async def _withdraw(
    client: SparcleClient, app_id: str, record: WindowRecord
) -> None:
    began = time.perf_counter()
    await client.withdraw(app_id)
    record.withdraw_ms.append((time.perf_counter() - began) * 1e3)
    record.withdrawn.append(app_id)


async def _closed_loop(
    client: SparcleClient,
    requests: list[SubmitRequest],
    live_cap: int,
    record: WindowRecord,
) -> None:
    """Window 1: the next submit waits for the previous decision."""
    live: deque[str] = deque()
    for request in requests:
        decision = await _submit_and_await(
            client, request, time.perf_counter(), record
        )
        if decision is not None and decision.accepted:
            live.append(request.app_id)
            if len(live) > live_cap:
                await _withdraw(client, live.popleft(), record)


async def _open_loop(
    clients: list[SparcleClient], inputs: Inputs, record: WindowRecord
) -> None:
    """Arrivals on the seeded schedule, whether or not replies came back."""

    async def one(conn: int, request: SubmitRequest, due: float) -> None:
        decision = await _submit_and_await(
            clients[conn], request, due, record
        )
        if decision is not None and decision.accepted:
            await asyncio.sleep(inputs.workload.hold_s)
            await _withdraw(clients[conn], request.app_id, record)

    origin = time.perf_counter()
    tasks: list[asyncio.Task[None]] = []
    for index, (request, offset) in enumerate(
        zip(inputs.requests, inputs.arrivals)
    ):
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record.lag_ms.append((time.perf_counter() - due) * 1e3)
        tasks.append(
            asyncio.create_task(one(index % len(clients), request, due))
        )
    await asyncio.gather(*tasks)


async def run_window(
    server: ServerProcess,
    clients: list[SparcleClient],
    inputs: Inputs,
    timeout_s: float,
) -> WindowRecord:
    """Drive the measured window; on timeout the rest count as undecided."""
    record = WindowRecord(
        mark_every=max(1, len(inputs.requests) // SEGMENTS),
        server_cpu=server.cpu_seconds,
    )
    workload = inputs.workload
    cpu_before = server.cpu_seconds()
    own_before = time.process_time()
    began = time.perf_counter()
    record.marks.append((began, cpu_before, 0))
    if workload.loop == "open":
        work = [asyncio.create_task(_open_loop(clients, inputs, record))]
    else:
        work = [
            asyncio.create_task(_closed_loop(
                client, inputs.requests[conn :: len(clients)],
                workload.live_cap, record,
            ))
            for conn, client in enumerate(clients)
        ]
    done, pending = await asyncio.wait(work, timeout=timeout_s)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()  # surface driver bugs and dropped connections
    record.wall_s = time.perf_counter() - began
    record.server_cpu_s = server.cpu_seconds() - cpu_before
    record.client_cpu_s = time.process_time() - own_before
    record.peak_rss_mb = server.peak_rss_mb()
    record.undecided += len(inputs.requests) - record.attempted
    record.attempted = len(inputs.requests)
    return record


# ----------------------------------------------------------------------
# Set-up and recovery
# ----------------------------------------------------------------------
async def set_up(
    inputs: Inputs, scenario: Path, log_dir: Path
) -> tuple[ServerProcess, list[SparcleClient], float]:
    """Spawn -> listening -> warm-up admissions decided and withdrawn.

    Returns the live server, its open connections and the seconds all of
    that took (the ``setup_s`` sample of this server).
    """
    began = time.perf_counter()
    server = ServerProcess(scenario, inputs.workload.shards, log_dir)
    await server.start()
    clients: list[SparcleClient] = []
    try:
        for _ in range(inputs.workload.connections):
            clients.append(await SparcleClient.open("127.0.0.1", server.port))
        for request in inputs.warmup:
            await clients[0].submit(request)
            decision = await clients[0].decision(request.app_id)
            if decision.accepted:
                await clients[0].withdraw(request.app_id)
    except BaseException:  # sparcle: ignore[SPC006] reraised; the server must not outlive a failed warm-up
        await tear_down(server, clients)
        raise
    return server, clients, time.perf_counter() - began


async def tear_down(server: ServerProcess, clients: list[SparcleClient]) -> None:
    """Close the connections and kill the server (the crash the log survives)."""
    for client in clients:
        await client.close()
    await server.kill()


async def observe(
    server: ServerProcess, client: SparcleClient
) -> tuple[StatusReply, TopologyReply, str]:
    """``status``, ``topology`` and the ``/metrics`` page."""
    status = await client.status()
    topology = await client.topology()
    metrics = await scrape_metrics("127.0.0.1", server.port)
    return status, topology, metrics


async def recover(
    inputs: Inputs, scenario: Path, log_dir: Path
) -> tuple[float, int]:
    """One ``serve --recover`` spawn -> listening; (seconds, recovered apps)."""
    server = ServerProcess(
        scenario, inputs.workload.shards, log_dir, recover=True
    )
    seconds = await server.start()
    try:
        async with await SparcleClient.open("127.0.0.1", server.port) as client:
            recovered = (await client.status()).recovered
    finally:
        await server.kill()
    return seconds, recovered


def parse_metrics(page: str) -> dict[str, float]:
    """``name{labels}`` -> value for every sample of a ``/metrics`` page."""
    out: dict[str, float] = {}
    for line in page.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out
