"""Whole-program analyses over the project index (SPC008).

Where a :class:`~repro.devtools.engine.Rule` sees one file's AST, an
:class:`Analysis` sees the whole program: the engine summarizes every
parsed file into a :class:`~repro.devtools.callgraph.ProjectIndex` and
calls :meth:`Analysis.check` once over it.  Violations flow through the
same suppression/baseline machinery as the per-file rules.

The shipped set is **SPC008** (:mod:`.asyncsafety`): blocking calls
reachable from ``async def`` bodies in the serving front-end, unawaited
coroutines, and fire-and-forget ``create_task``.  It stays because
tier-1 misses those bugs (``docs/static-analysis.md``).

Retired IDs, not reused: SPC007 (lock-acquisition order) left with the
``repro.perf`` locks it policed; SPC009 (two-phase reserve/commit
typestate) and SPC010 (wire-schema drift) left because tier-1 tests
catch their bugs — ``tests/service/test_shard.py`` and the wire-schema
class in ``tests/service/test_protocol.py``.
"""

from __future__ import annotations

from repro.devtools.analyses.asyncsafety import AsyncSafetyAnalysis
from repro.devtools.analyses.base import Analysis

#: The analyses ``sparcle lint`` runs by default, in report order.
DEFAULT_ANALYSES: tuple[Analysis, ...] = (AsyncSafetyAnalysis(),)

__all__ = [
    "Analysis",
    "AsyncSafetyAnalysis",
    "DEFAULT_ANALYSES",
]
