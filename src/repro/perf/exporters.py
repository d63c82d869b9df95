"""Exporters: Prometheus-style text snapshots and merged run reports.

Three output formats, one per consumer:

* :func:`prometheus_snapshot` — the text exposition format scrapers and
  humans both read: ``# TYPE`` headers, ``name{label="value"} value``
  sample lines.  Counters/gauges map directly; timers export as
  ``_count`` / ``_seconds_sum`` / ``_seconds_max`` samples (a summary
  without quantiles).
* :meth:`Tracer.export_jsonl` (in :mod:`repro.perf.tracing`) — the raw
  event stream for post-hoc audit.
* :func:`run_report` / :func:`export_run` — one merged JSON document tying
  both together with run metadata, which is what the CLI ``trace``
  subcommand and ``experiments/base.export_observability`` write next to
  the experiment artifacts.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.perf.counters import PerfRegistry, counters
from repro.perf.metrics import LabeledRegistry, get_metrics
from repro.perf.tracing import Tracer, get_tracer

#: Prefix applied to every exported metric name.
PROM_PREFIX = "sparcle"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _report_timestamp(clock: Callable[[], float] | None) -> float:
    """The ``generated_at_unix`` stamp for one run report.

    Precedence: an explicitly injected ``clock``, then the standard
    ``SOURCE_DATE_EPOCH`` reproducible-build variable, then the wall
    clock.  The first two make re-exports of the same run bit-identical,
    which is what lets soak/export artifacts be diffed across reruns.
    """
    if clock is not None:
        return float(clock())
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        return float(int(epoch))
    return time.time()


def _prom_name(name: str) -> str:
    """``assignment.width_tables`` -> ``sparcle_assignment_width_tables``."""
    return f"{PROM_PREFIX}_{_NAME_RE.sub('_', name)}"


def _prom_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    escaped = ",".join(
        '{}="{}"'.format(k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in labels
    )
    return f"{{{escaped}}}"


def _format_value(value: float) -> str:
    # Integral values print without a trailing ".0" (Prometheus style).
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_snapshot(
    registry: PerfRegistry | None = None,
    labeled: LabeledRegistry | None = None,
) -> str:
    """Render both registries in the Prometheus text exposition format.

    ``registry`` defaults to the process-wide :data:`repro.perf.counters`
    and ``labeled`` to the context's :func:`~repro.perf.metrics
    .get_metrics` registry, so a bare call snapshots whatever the run
    recorded.
    """
    registry = registry if registry is not None else counters
    labeled = labeled if labeled is not None else get_metrics()
    lines: list[str] = []

    snap = registry.snapshot()
    for name, value in snap["counters"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_format_value(value)}")
    for name, value in snap["gauges"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_format_value(value)}")
    for name, stat in snap["timers"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"{prom}_count {stat['calls']}")
        lines.append(f"{prom}_seconds_sum {_format_value(stat['total_seconds'])}")
        lines.append(f"{prom}_seconds_max {_format_value(stat['max_seconds'])}")

    raw = labeled.raw_items()
    by_name: dict[str, list[str]] = {}
    for (name, labels), value in sorted(raw["counters"].items()):
        by_name.setdefault(f"counter {name}", []).append(
            f"{_prom_name(name)}{_prom_labels(labels)} {_format_value(value)}"
        )
    for (name, labels), value in sorted(raw["gauges"].items()):
        by_name.setdefault(f"gauge {name}", []).append(
            f"{_prom_name(name)}{_prom_labels(labels)} {_format_value(value)}"
        )
    for (name, labels), stat in sorted(raw["timers"].items()):
        prom, suffix = _prom_name(name), _prom_labels(labels)
        by_name.setdefault(f"summary {name}", []).extend(
            [
                f"{prom}_count{suffix} {stat.calls}",
                f"{prom}_seconds_sum{suffix} {_format_value(stat.total_seconds)}",
                f"{prom}_seconds_max{suffix} {_format_value(stat.max_seconds)}",
            ]
        )
    for header, samples in sorted(by_name.items()):
        kind, name = header.split(" ", 1)
        lines.append(f"# TYPE {_prom_name(name)} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + ("\n" if lines else "")


def run_report(
    *,
    tracer_obj: Tracer | None = None,
    registry: PerfRegistry | None = None,
    labeled: LabeledRegistry | None = None,
    extra: dict[str, Any] | None = None,
    clock: Callable[[], float] | None = None,
) -> dict[str, Any]:
    """One merged JSON document: counters + labeled metrics + trace digest.

    The trace digest carries per-kind record counts and drop statistics —
    enough to sanity-check coverage without re-reading the JSONL stream.
    ``clock`` (or the ``SOURCE_DATE_EPOCH`` environment variable) pins
    ``generated_at_unix`` so two exports of the same run compare equal.
    """
    tracer_obj = tracer_obj if tracer_obj is not None else get_tracer()
    registry = registry if registry is not None else counters
    labeled = labeled if labeled is not None else get_metrics()
    report: dict[str, Any] = {
        "generated_at_unix": _report_timestamp(clock),
        "perf": registry.snapshot(),
        "metrics": labeled.snapshot(),
        "trace": {
            "records": len(tracer_obj),
            "dropped": tracer_obj.dropped,
            "capacity": tracer_obj.capacity,
            "kinds": tracer_obj.kind_counts(),
        },
    }
    if extra:
        report.update(extra)
    return report


def export_run(
    directory: str | Path,
    *,
    tracer_obj: Tracer | None = None,
    registry: PerfRegistry | None = None,
    labeled: LabeledRegistry | None = None,
    extra: dict[str, Any] | None = None,
    prefix: str = "",
    clock: Callable[[], float] | None = None,
) -> dict[str, Path]:
    """Write the full observability artifact set into ``directory``.

    Creates ``<prefix>trace.jsonl`` (raw records), ``<prefix>perf.prom``
    (Prometheus text snapshot), and ``<prefix>report.json`` (merged run
    report).  Returns the written paths keyed by artifact name.
    ``clock`` (or ``SOURCE_DATE_EPOCH``) makes the report bit-identical
    across reruns of the same run.
    """
    tracer_obj = tracer_obj if tracer_obj is not None else get_tracer()
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": tracer_obj.export_jsonl(target / f"{prefix}trace.jsonl"),
        "prom": target / f"{prefix}perf.prom",
        "report": target / f"{prefix}report.json",
    }
    paths["prom"].write_text(prometheus_snapshot(registry, labeled))
    paths["report"].write_text(
        json.dumps(
            run_report(
                tracer_obj=tracer_obj,
                registry=registry,
                labeled=labeled,
                extra=extra,
                clock=clock,
            ),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return paths
