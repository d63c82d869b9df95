"""Observability for the scheduling hot path and control loops.

Two layers, cheapest first:

* :mod:`repro.perf.counters` — one registry class of counters, gauges,
  and wall-clock timers keyed by a name plus an optional label set
  (``incr("assignment.width_tables")``, ``incr("scheduler.decisions",
  kind="GR")``; one dict update per event).  :data:`counters` is the
  process-wide instance every call site reports into and
  ``BENCH_*.json`` exports; :func:`use_registry` installs a private one
  for the current context.
* :mod:`repro.perf.tracing` — structured, timestamped event/span records
  in a bounded ring buffer with JSONL export: the post-hoc audit trail
  for admission decisions, path selections, repair actions, and
  simulator element transitions.

:mod:`repro.perf.exporters` renders them as a Prometheus-style text
snapshot or a merged JSON run report.

Thread contract: one writer thread.  Registries and tracers take no
lock; every write comes from the serving or experiment thread (the asyncio
loop of ``sparcle serve``, or the thread running an experiment).  The
pacing workers of :mod:`repro.runtime.engine`, the only threads in the
package, import nothing from :mod:`repro.perf`
(``tests/test_thread_contract.py`` checks both).

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

from repro.perf import exporters, tracing
from repro.perf.counters import (
    PerfRegistry,
    counters,
    get_metrics,
    timed,
    timer,
    use_registry,
)
from repro.perf.exporters import export_run, prometheus_snapshot, run_report
from repro.perf.tracing import TraceEvent, Tracer, get_tracer, use_tracer

__all__ = [
    "PerfRegistry",
    "counters",
    "timed",
    "timer",
    "tracing",
    "exporters",
    "TraceEvent",
    "Tracer",
    "get_tracer",
    "use_tracer",
    "get_metrics",
    "use_registry",
    "prometheus_snapshot",
    "run_report",
    "export_run",
]
