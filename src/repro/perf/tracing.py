"""Structured trace layer: typed, timestamped event/span records.

Where :mod:`repro.perf.counters` answers "how many / how long in
aggregate", this module answers "what exactly happened, in order": every
admission attempt, Algorithm-2 path selection, repair step, and simulator
element transition can be recorded as a :class:`TraceEvent` and exported
as JSONL for post-hoc audit (the observability layer's core promise — a
full admit→fail→repair run is reconstructible from its trace alone).

Design constraints, in priority order:

1. **Off by default, near-free when off.**  Call sites are guarded::

       tr = tracing.get_tracer()
       if tr.enabled:
           tr.event("admission.decision", app_id=..., accepted=True)

   so a disabled tracer costs one function call plus one attribute check
   — no dict is built, nothing is appended.  ``benchmarks/
   check_overhead.py`` enforces <5% overhead on the assignment benchmarks.
2. **Bounded memory.**  Records land in a ring buffer
   (``collections.deque(maxlen=...)``); a runaway simulation cannot OOM
   the process through its own telemetry.  Drops are counted
   (:attr:`Tracer.dropped`) rather than silent.
3. **Scoped, not global-only.**  :func:`use_tracer` installs a tracer for
   the current context (``contextvars``), so a run that wants its own
   buffer (``sparcle trace``, a test) does not share the global one.
   Like the metrics registry, a tracer takes no lock: the
   :mod:`repro.perf` contract is one writer thread.

Record schema (see ``docs/observability.md``)::

    {"ts": <monotonic-or-sim time>, "seq": <int>, "kind": "<dotted.name>",
     "fields": {...}}                          # event
    {"ts": ..., "seq": ..., "kind": ..., "fields": {...},
     "duration_s": <float>}                    # span (closed)
"""

from __future__ import annotations

import contextvars
import io
import json
import time
from collections import Counter, deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Default ring-buffer capacity (records, not bytes).
DEFAULT_CAPACITY = 65_536


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    ``ts`` is the caller-supplied time when given (simulated seconds in
    the simulator probes, repair-loop time in the controller) and a
    process-monotonic wall clock otherwise; ``seq`` is a per-tracer
    monotonic sequence number that orders records even at equal
    timestamps.  ``duration_s`` is ``None`` for point events and the
    elapsed wall time for spans.
    """

    ts: float
    seq: int
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)
    duration_s: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (JSONL export uses exactly this)."""
        record: dict[str, Any] = {
            "ts": self.ts,
            "seq": self.seq,
            "kind": self.kind,
            "fields": self.fields,
        }
        if self.duration_s is not None:
            record["duration_s"] = self.duration_s
        return record


class Tracer:
    """A bounded buffer of :class:`TraceEvent` records (one writer thread).

    Disabled on construction; :meth:`enable` / :meth:`disable` toggle
    recording.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.enabled = False
        self.capacity = capacity
        self.dropped = 0
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0

    # -- recording -----------------------------------------------------
    def enable(self) -> None:
        """Start recording (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (idempotent); buffered records are kept."""
        self.enabled = False

    def event(
        self, kind: str, /, *, ts: float | None = None, **fields: Any
    ) -> None:
        """Record one point event (no-op when disabled).

        ``ts`` overrides the wall clock with a domain time (simulated
        seconds, repair-loop time); ``fields`` become the record payload.
        ``kind`` is positional-only so a payload field may also be named
        ``kind`` (e.g. GR/BE on admission records).
        """
        if not self.enabled:
            return
        self._append(time.monotonic() if ts is None else ts, kind, fields, None)

    @contextmanager
    def span(self, kind: str, /, **fields: Any) -> Iterator[dict[str, Any]]:
        """Record a span: one record carrying the block's wall duration.

        Yields the mutable ``fields`` dict so the block can attach
        results discovered mid-flight (e.g. the chosen bottleneck)::

            with tracer.span("assignment.solve", app_id=app) as sp:
                ...
                sp["rate"] = result.rate
        """
        if not self.enabled:
            yield fields
            return
        start = time.perf_counter()
        try:
            yield fields
        finally:
            elapsed = time.perf_counter() - start
            self._append(time.monotonic(), kind, fields, elapsed)

    def _append(
        self,
        ts: float,
        kind: str,
        fields: dict[str, Any],
        duration_s: float | None,
    ) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(TraceEvent(ts, self._seq, kind, fields, duration_s))
        self._seq += 1

    # -- querying ------------------------------------------------------
    def records(self, kind: str | None = None) -> tuple[TraceEvent, ...]:
        """Buffered records in arrival order, optionally filtered by kind.

        ``kind`` matches exactly, or as a dotted prefix when it ends with
        ``.`` (``records("repair.")`` returns every repair record).
        """
        snapshot = tuple(self._buffer)
        if kind is None:
            return snapshot
        if kind.endswith("."):
            return tuple(r for r in snapshot if r.kind.startswith(kind))
        return tuple(r for r in snapshot if r.kind == kind)

    def __len__(self) -> int:
        return len(self._buffer)

    def kind_counts(self) -> dict[str, int]:
        """``kind -> record count`` over the current buffer, sorted."""
        counts = Counter(r.kind for r in self._buffer)
        return dict(sorted(counts.items()))

    def clear(self) -> None:
        """Drop every buffered record and reset the drop counter."""
        self._buffer.clear()
        self.dropped = 0
        self._seq = 0

    # -- export --------------------------------------------------------
    def export_jsonl(self, path: str | Path) -> Path:
        """Write the buffer as JSON Lines (one record per line)."""
        target = Path(path)
        with io.StringIO() as sink:
            for record in self._buffer:
                sink.write(json.dumps(record.to_dict(), sort_keys=True))
                sink.write("\n")
            target.write_text(sink.getvalue())
        return target


#: The process-wide default tracer (disabled until someone enables it).
tracer = Tracer()

#: Context-local override installed by :func:`use_tracer`.
_current: contextvars.ContextVar[Tracer | None] = contextvars.ContextVar(
    "repro_perf_tracer", default=None
)


def get_tracer() -> Tracer:
    """The tracer for the current context (scoped override or global)."""
    scoped = _current.get()
    return scoped if scoped is not None else tracer


@contextmanager
def use_tracer(scoped: Tracer) -> Iterator[Tracer]:
    """Route this context's trace records into ``scoped``.

    A run installs its own tracer so its records stay out of the
    process-wide buffer::

        with use_tracer(Tracer()) as tr:
            tr.enable()
            run_experiment()
            tr.export_jsonl("run.jsonl")
    """
    token = _current.set(scoped)
    try:
        yield scoped
    finally:
        _current.reset(token)
