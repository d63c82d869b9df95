"""Whole-program analyses (SPC008–SPC010) over the project index.

Where a :class:`~repro.devtools.engine.Rule` sees one file's AST, an
:class:`Analysis` sees the whole program: the engine parses every file,
feeds each parsed file to :meth:`Analysis.extract` (whose result is
JSON-serializable and cached on disk keyed by file mtime/size), then
calls :meth:`Analysis.check` once with the assembled
:class:`~repro.devtools.callgraph.ProjectIndex`.  Violations flow
through the same suppression/baseline machinery as the per-file rules.

The shipped set:

* **SPC008** (:mod:`.asyncsafety`) — blocking calls reachable from
  ``async def`` bodies in the serving front-end, unawaited coroutines,
  and fire-and-forget ``create_task``;
* **SPC009** (:mod:`.typestate`) — path-sensitive two-phase
  reserve/commit typestate in the shard coordinator;
* **SPC010** (:mod:`.wire_schema`) — wire-protocol schema drift between
  the message dataclasses, the error-code registry, the client's
  exception map, and the documented schema tables.

SPC007 (lock-acquisition order) is retired with the ``repro.perf`` locks
it policed; its ID is not reused.
"""

from __future__ import annotations

from repro.devtools.analyses.asyncsafety import AsyncSafetyAnalysis
from repro.devtools.analyses.base import Analysis
from repro.devtools.analyses.typestate import TwoPhaseTypestateAnalysis
from repro.devtools.analyses.wire_schema import WireSchemaAnalysis

#: The analyses ``sparcle lint`` runs by default, in report order.
DEFAULT_ANALYSES: tuple[Analysis, ...] = (
    AsyncSafetyAnalysis(),
    TwoPhaseTypestateAnalysis(),
    WireSchemaAnalysis(),
)

__all__ = [
    "Analysis",
    "AsyncSafetyAnalysis",
    "DEFAULT_ANALYSES",
    "TwoPhaseTypestateAnalysis",
    "WireSchemaAnalysis",
]
