"""Observability for the scheduling hot path and control loops.

Three layers, cheapest first:

* :mod:`repro.perf.counters` — process-wide counters and wall-clock
  timers keyed by bare strings (a locked dict update per event); used by
  the Algorithm-2 hot path and exported into ``BENCH_*.json``.
* :mod:`repro.perf.metrics` — labeled, optionally scoped registries
  (``incr("scheduler.decisions", kind="GR")``) so per-app / per-element
  series don't collide and concurrent runs don't share one global dict.
* :mod:`repro.perf.tracing` — structured, timestamped event/span records
  in a bounded ring buffer with JSONL export: the post-hoc audit trail
  for admission decisions, path selections, repair actions, and
  simulator element transitions.

:mod:`repro.perf.exporters` renders any of them as a Prometheus-style
text snapshot or a merged JSON run report.

Tracing is **off by default**; instrumented call sites guard with one
attribute check (``if tr.enabled:``) so a disabled tracer is free —
``benchmarks/check_overhead.py`` enforces <5% overhead on the assignment
benchmarks.

Usage::

    from repro.perf import counters, timed, tracing

    counters.incr("assignment.width_tables")

    @timed("assignment.total")
    def sparcle_assign(...): ...

    tr = tracing.get_tracer()
    tr.enable()
    ...                            # instrumented run
    tr.export_jsonl("trace.jsonl")
"""

from repro.perf import exporters, metrics, tracing
from repro.perf.counters import PerfRegistry, counters, timed, timer
from repro.perf.exporters import export_run, prometheus_snapshot, run_report
from repro.perf.metrics import (
    LabeledRegistry,
    ScopedMetrics,
    get_metrics,
    use_registry,
)
from repro.perf.tracing import TraceEvent, Tracer, get_tracer, use_tracer

__all__ = [
    "PerfRegistry",
    "counters",
    "timed",
    "timer",
    "tracing",
    "metrics",
    "exporters",
    "TraceEvent",
    "Tracer",
    "get_tracer",
    "use_tracer",
    "LabeledRegistry",
    "ScopedMetrics",
    "get_metrics",
    "use_registry",
    "prometheus_snapshot",
    "run_report",
    "export_run",
]
