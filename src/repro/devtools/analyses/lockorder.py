"""SPC007: lock-acquisition-order cycles and loop-blocking held regions.

The concurrently-driven modules (``repro.perf``, the admission gateway,
the shard coordinator) guard shared state with ``threading.Lock``/
``RLock`` instances.  Two hazards are mechanical to detect once the
project index exposes lock facts:

* **Order cycles.**  If one code path acquires lock *A* then *B* while
  another acquires *B* then *A*, two threads can deadlock.  The analysis
  builds the acquisition-order graph from (a) nested ``with`` blocks
  inside one function and (b) one-hop interprocedural edges — a call
  made while holding *A* into a function that acquires *B* — and reports
  every cycle.
* **Blocking the loop while locked.**  An ``await`` suspends the holding
  task without releasing a ``threading`` lock; a thread-pool
  ``submit``/``map`` while holding a lock the workers may also want is
  the classic self-deadlock.  Both are reported wherever they appear in
  a held-lock region of a scoped file.

Locks are *discovered*, not declared: any ``self.x = threading.Lock()``
(or ``RLock``) assignment marks ``x`` as a lock attribute of its class;
module-level ``X = threading.Lock()`` globals count too.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from repro.devtools.analyses.base import Analysis
from repro.devtools.callgraph import ProjectIndex
from repro.devtools.engine import Violation

#: Files whose lock discipline is in scope.
SCOPE_SUFFIXES = ("service/shard.py",)
SCOPE_DIRS = ("perf/",)


def _in_scope(relpath: str) -> bool:
    if any(relpath.endswith(suffix) for suffix in SCOPE_SUFFIXES):
        return True
    return any(f"/{d}" in f"/{relpath}" for d in SCOPE_DIRS)


class LockOrderAnalysis(Analysis):
    """SPC007: inconsistent lock acquisition order / blocking held regions."""

    rule_id = "SPC007"
    summary = "lock-order cycle or event-loop-blocking call in a held-lock region"

    def check(self, project: ProjectIndex) -> Iterable[Violation]:
        edges: dict[tuple[str, str], tuple[str, int]] = {}
        scoped = [
            (relpath, func)
            for relpath in project.files_matching()
            if _in_scope(relpath)
            for func in project.functions_in(relpath)
        ]
        for relpath, func in scoped:
            for outer, inner, line in func["lock_edges"]:
                edges.setdefault((outer, inner), (relpath, line))
            module = project.summaries[relpath]["module"]
            for event in func["in_lock"]:
                if event["kind"] != "call" or event["dotted"] is None:
                    continue
                for callee in project.resolve(
                    func, event["dotted"], module=module
                ):
                    for acquired in project.functions[callee]["acquires"]:
                        edges.setdefault(
                            (event["lock"], acquired["lock"]),
                            (relpath, event["line"]),
                        )
        yield from self._cycles(edges)
        for relpath, func in scoped:
            for event in func["in_lock"]:
                if event["kind"] == "await":
                    yield Violation(
                        relpath, event["line"], self.rule_id,
                        f"await while holding lock {event['lock']!r}: a "
                        "threading lock is not released across suspension "
                        "points (move the await outside the lock region)",
                    )
                elif event["kind"] == "submit":
                    yield Violation(
                        relpath, event["line"], self.rule_id,
                        f"thread-pool {event['dotted']}(...) while holding "
                        f"lock {event['lock']!r}: workers that need the "
                        "same lock deadlock against the submitter",
                    )

    # ------------------------------------------------------------------
    def _cycles(
        self, edges: Mapping[tuple[str, str], tuple[str, int]]
    ) -> Iterable[Violation]:
        graph: dict[str, list[str]] = {}
        for outer, inner in sorted(edges):
            graph.setdefault(outer, []).append(inner)
            graph.setdefault(inner, [])
        reported: set[frozenset[str]] = set()
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key in reported:
                continue
            reported.add(key)
            relpath, line = self._anchor(cycle, edges)
            chain = " -> ".join([*cycle, cycle[0]])
            yield Violation(
                relpath, line, self.rule_id,
                f"lock-order cycle {chain}: these locks are acquired in "
                "inconsistent orders (potential deadlock); pick one global "
                "order and stick to it",
            )

    @staticmethod
    def _find_cycle(
        graph: Mapping[str, list[str]], start: str
    ) -> list[str] | None:
        """A simple cycle through ``start``, or ``None``."""
        path: list[str] = [start]
        on_path = {start}

        def dfs(node: str) -> list[str] | None:
            for nxt in graph.get(node, ()):
                if nxt == start and len(path) > 1:
                    return list(path)
                if nxt in on_path:
                    continue
                path.append(nxt)
                on_path.add(nxt)
                found = dfs(nxt)
                if found is not None:
                    return found
                on_path.discard(nxt)
                path.pop()
            return None

        # Self-edges are skipped: re-acquiring the same id is legal for
        # RLocks and the discovery pass does not distinguish the kinds.
        return dfs(start)

    @staticmethod
    def _anchor(
        cycle: list[str],
        edges: Mapping[tuple[str, str], tuple[str, int]],
    ) -> tuple[str, int]:
        ring = [*cycle, cycle[0]]
        for outer, inner in zip(ring, ring[1:]):
            if (outer, inner) in edges:
                return edges[(outer, inner)]
        return next(iter(edges.values()))


__all__ = ["LockOrderAnalysis"]
