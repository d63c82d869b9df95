"""Time-series probes: periodic samples of a running simulation.

A :class:`TimeSeriesProbe` attaches to a :class:`~repro.simulator
.streamsim.StreamSimulator` or :class:`~repro.simulator.multiflow
.MultiFlowSimulator` and schedules itself into the simulation's event
calendar every ``interval`` simulated seconds.  Each firing records one
:class:`ProbeSample` per element:

* **queue length** — jobs waiting or in service right now;
* **busy fraction** — the share of the elapsed window the element spent
  serving (from :meth:`busy_seconds`, which includes the in-service job);
* **delivered rate** — units delivered during the window divided by its
  length (whole-simulator for a single flow, summed across flows for the
  multi-flow simulator, with per-flow counts alongside).

Samples accumulate in :attr:`TimeSeriesProbe.samples` regardless of the
trace state (attaching a probe *is* the opt-in), and each window
additionally emits one ``sim.probe`` trace record when tracing is
enabled — so an exported JSONL trace carries the load time-series next
to the decision events.

Probes are pull-free: they never mutate the simulation, only read server
statistics, so an attached probe changes nothing but the event count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SimulationError
from repro.perf import get_metrics, tracing


@dataclass(frozen=True)
class ProbeSample:
    """One element's statistics over one sampling window."""

    time: float
    element: str
    queue_length: int
    busy_fraction: float
    up: bool


class TimeSeriesProbe:
    """Periodic sampler of element servers and delivery counters."""

    def __init__(self, simulator, interval: float) -> None:
        if interval <= 0:
            raise SimulationError(
                f"probe interval must be positive, got {interval}"
            )
        self.simulator = simulator
        self.interval = interval
        #: Per-element samples, in time order.
        self.samples: list[ProbeSample] = []
        #: Per-window delivered counts: (window_end, delivered_in_window).
        self.delivered_windows: list[tuple[float, int]] = []
        self._engine = simulator.engine
        self._last_time = self._engine.now
        self._last_busy: dict[str, float] = {}
        self._last_delivered = 0
        self._armed = False

    def attach(self) -> "TimeSeriesProbe":
        """Start sampling every ``interval`` simulated seconds."""
        if self._armed:
            raise SimulationError("probe is already attached")
        self._armed = True
        self._last_time = self._engine.now
        self._last_delivered = self._delivered_total()
        self._last_busy = {
            name: server.busy_seconds()
            for name, server in self.simulator.servers.items()
        }
        self._engine.schedule(self.interval, self._sample)
        return self

    def detach(self) -> None:
        """Stop sampling after the next firing (no pending-event surgery)."""
        self._armed = False

    # ------------------------------------------------------------------
    def _delivered_total(self) -> int:
        return self.simulator.delivered_count

    def _sample(self) -> None:
        if not self._armed:
            return
        now = self._engine.now
        window = now - self._last_time
        if window <= 0:
            window = self.interval  # defensive; engine time is monotonic
        queue: dict[str, int] = {}
        busy: dict[str, float] = {}
        for name, server in self.simulator.servers.items():
            busy_now = server.busy_seconds(now)
            fraction = (busy_now - self._last_busy.get(name, 0.0)) / window
            self._last_busy[name] = busy_now
            fraction = min(max(fraction, 0.0), 1.0)
            queue[name] = server.queue_length()
            busy[name] = fraction
            self.samples.append(
                ProbeSample(
                    time=now,
                    element=name,
                    queue_length=queue[name],
                    busy_fraction=fraction,
                    up=server.up,
                )
            )
        delivered_total = self._delivered_total()
        delivered = delivered_total - self._last_delivered
        self._last_delivered = delivered_total
        self.delivered_windows.append((now, delivered))
        self._last_time = now

        tr = tracing.get_tracer()
        if tr.enabled:
            fields = {
                "queue_length": queue,
                "busy_fraction": busy,
                "delivered": delivered,
                "delivered_rate": delivered / window,
            }
            per_flow = getattr(self.simulator, "delivered_counts", None)
            if per_flow is not None:
                fields["delivered_per_flow"] = per_flow()
            tr.event("sim.probe", ts=now, **fields)
        metrics = get_metrics()
        for name in queue:
            metrics.set_gauge("sim.queue_length", queue[name], element=name)
            metrics.set_gauge("sim.busy_fraction", busy[name], element=name)
        metrics.set_gauge("sim.delivered_rate", delivered / window)

        self._engine.schedule(self.interval, self._sample)

    # ------------------------------------------------------------------
    def delivered_rates(self) -> list[tuple[float, float]]:
        """``(window_end, delivered/interval)`` per completed window."""
        return [
            (when, count / self.interval) for when, count in self.delivered_windows
        ]

    def peak_queue(self, element: str) -> int:
        """Largest sampled queue length of one element (0 if never seen)."""
        return max(
            (s.queue_length for s in self.samples if s.element == element),
            default=0,
        )
