"""The metrics registry, ``@timed`` hooks, and the per-context override.

A single module-level :class:`PerfRegistry` (:data:`counters`) backs all
instrumentation so callers never have to thread a registry through the
scheduler layers.  Every series is keyed by a name plus a label set;
a bare ``counters.incr("assignment.commits")`` writes the series with
the empty label set, and ``incr("scheduler.decisions", kind="GR")``
writes a labeled one.  Events cost one dict update; timers add two
``perf_counter`` calls around the wrapped block.  Everything is
queryable (``get``, ``timer_stats``, ``snapshot``) and resettable,
which is what the benchmark runner and the perf-counter tests rely on.

:func:`use_registry` installs a private registry for the current
context (``contextvars``); :func:`get_metrics` returns it, or
:data:`counters` when none is installed.
"""

from __future__ import annotations

import contextvars
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from typing import Any, Callable, TypeVar

F = TypeVar("F", bound=Callable[..., Any])

#: A metric identity: name plus its sorted ``(label, value)`` pairs.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _metric_key(name: str, labels: dict[str, Any]) -> MetricKey:
    """Canonical key for ``name`` under ``labels`` (values stringified)."""
    if not labels:
        return name, ()
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class TimerStat:
    """Aggregate wall-clock statistics of one named timer."""

    calls: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def record(self, seconds: float) -> None:
        self.calls += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class PerfRegistry:
    """Counters, gauges, and timers keyed by ``(name, labels)``.

    Unsynchronized by design: the package contract (:mod:`repro.perf`)
    is one writer thread.
    """

    def __init__(self) -> None:
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, float] = {}
        self._timers: dict[MetricKey, TimerStat] = {}

    # -- writes --------------------------------------------------------
    def incr(self, name: str, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` to the counter ``name{labels}`` (created at 0)."""
        key = _metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + amount

    def accumulate(self, name: str, amount: float, **labels: Any) -> None:
        """Add a float ``amount`` to the gauge ``name{labels}`` (from 0.0).

        Accumulated gauges carry physical quantities (capacity units
        released, rate restored) that integer counters cannot represent.
        """
        key = _metric_key(name, labels)
        self._gauges[key] = self._gauges.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name{labels}`` to ``value`` (last write wins)."""
        self._gauges[_metric_key(name, labels)] = value

    def drop_gauge(self, name: str, **labels: Any) -> None:
        """Remove the gauge ``name{labels}``, if present (its subject left)."""
        self._gauges.pop(_metric_key(name, labels), None)

    def observe(self, name: str, seconds: float, **labels: Any) -> None:
        """Record one duration sample under the timer ``name{labels}``."""
        key = _metric_key(name, labels)
        stat = self._timers.get(key)
        if stat is None:
            stat = self._timers[key] = TimerStat()
        stat.record(seconds)

    # -- reads ---------------------------------------------------------
    def get(self, name: str, **labels: Any) -> float:
        """Counter value for exactly ``name{labels}`` (0 when absent)."""
        return self._counters.get(_metric_key(name, labels), 0)

    def gauge(self, name: str, **labels: Any) -> float:
        """Gauge value for exactly ``name{labels}`` (0.0 when absent)."""
        return self._gauges.get(_metric_key(name, labels), 0.0)

    def timer_stats(self, name: str, **labels: Any) -> TimerStat:
        """Timer stats for ``name{labels}`` (a zero stat when absent)."""
        return self._timers.get(_metric_key(name, labels), TimerStat())

    # -- lifecycle / export --------------------------------------------
    def reset(self) -> None:
        """Zero every counter, gauge, and timer (between benchmark rounds)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable dump; label sets render as ``name{k=v,...}``."""

        def render(key: MetricKey) -> str:
            name, labels = key
            if not labels:
                return name
            inner = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{inner}}}"

        timers = {
            render(k): {
                "calls": stat.calls,
                "total_seconds": stat.total_seconds,
                "mean_seconds": stat.mean_seconds,
                "max_seconds": stat.max_seconds,
            }
            for k, stat in self._timers.items()
        }
        return {
            "counters": dict(sorted((render(k), v) for k, v in self._counters.items())),
            "gauges": dict(sorted((render(k), v) for k, v in self._gauges.items())),
            "timers": dict(sorted(timers.items())),
        }

    def raw_items(self) -> dict[str, dict[MetricKey, Any]]:
        """The tables keyed by :data:`MetricKey` (exporter input; read-only)."""
        return {
            "counters": self._counters,
            "gauges": self._gauges,
            "timers": self._timers,
        }


#: The process-wide registry every instrumented call site reports into.
counters = PerfRegistry()

_current: contextvars.ContextVar[PerfRegistry | None] = contextvars.ContextVar(
    "repro_perf_metrics", default=None
)


def get_metrics() -> PerfRegistry:
    """The registry for the current context (override or :data:`counters`)."""
    scoped = _current.get()
    return scoped if scoped is not None else counters


@contextmanager
def use_registry(registry: PerfRegistry) -> Iterator[PerfRegistry]:
    """Route this context's :func:`get_metrics` writes into ``registry``.

    The metrics counterpart of :func:`repro.perf.tracing.use_tracer`: a
    run that wants its own series (``sparcle trace``, ``sparcle perf``)
    installs a private registry so they stay apart from the process-wide
    one.
    """
    token = _current.set(registry)
    try:
        yield registry
    finally:
        _current.reset(token)


def timed(name: str) -> Callable[[F], F]:
    """Decorator recording call count and wall time under timer ``name``."""

    def decorate(fn: F) -> F:
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counters.observe(name, time.perf_counter() - start)

        return wrapper  # type: ignore[return-value]

    return decorate


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Context-manager flavour of :func:`timed`."""
    start = time.perf_counter()
    try:
        yield
    finally:
        counters.observe(name, time.perf_counter() - start)
