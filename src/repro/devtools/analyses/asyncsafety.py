"""SPC008: async-safety of the serving front-end.

``repro.service.server``/``client`` run everything on one asyncio event
loop; a blocking call anywhere in the synchronous code an ``async def``
reaches stalls every connection at once.  Three checks:

* **Blocking calls reachable from async code.**  Starting from every
  ``async def`` in the scoped files, walk the call graph (following
  ``self.m``, imported names, and method-name CHA) and flag blocking
  sinks: ``time.sleep``, ``open``/pathlib file IO, ``socket.*``, and
  ``subprocess.*``.  The *intentional* synchronous-backend-on-loop
  boundary is allowlisted by qualname prefix — every entry carries a
  rationale string, and the traversal stops there instead of descending
  into the backend.
* **Unawaited coroutines.**  A bare expression statement calling a
  project ``async def`` creates a coroutine that is never awaited — the
  call silently does nothing.
* **Fire-and-forget ``create_task``.**  A bare ``loop.create_task(...)``
  /``asyncio.ensure_future(...)`` statement drops the only reference to
  the task: it can be garbage-collected mid-flight and its exception is
  never observed.  Keep a reference and attach a done-callback.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from repro.devtools.analyses.base import Analysis
from repro.devtools.callgraph import ProjectIndex
from repro.devtools.engine import Violation

#: Files whose async discipline is in scope (the asyncio front-end).
SCOPE_SUFFIXES = ("service/server.py", "service/client.py")

#: Qualname prefixes the traversal does not descend into, with the
#: rationale for each.  There is no worker side: every backend call runs
#: synchronously on the event loop (docs/serving.md), so an entry here
#: accepts that the backend's blocking IO stalls the loop, on purpose.
ALLOWLIST: Mapping[str, str] = {
    "repro.service.shard.": (
        "the shard event logs open, append and rewrite their files on the "
        "event loop: a decision must be durable before its reply is "
        "sent, and recovery runs before the listening socket opens"
    ),
}

#: Exact dotted names that block the loop.
_SINK_EXACT = frozenset({"time.sleep", "open"})

#: Dotted prefixes that block the loop.
_SINK_PREFIXES = ("socket.", "subprocess.")

#: Attribute calls that are file IO regardless of receiver.
_SINK_ATTRS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

#: Task-spawn entry points for the fire-and-forget check.
_SPAWN_ATTRS = frozenset({"create_task", "ensure_future"})


def _sink_reason(dotted: str) -> str | None:
    """Why a call is a blocking sink, or ``None`` when it is not."""
    if dotted in _SINK_EXACT:
        return f"{dotted}(...) blocks the event loop"
    if any(dotted.startswith(prefix) for prefix in _SINK_PREFIXES):
        return f"{dotted}(...) performs blocking IO"
    attr = dotted.rpartition(".")[2]
    if attr in _SINK_ATTRS:
        return f"{dotted}(...) performs blocking file IO"
    return None


def _allowlisted(qualname: str) -> bool:
    return any(qualname.startswith(prefix) for prefix in ALLOWLIST)


class AsyncSafetyAnalysis(Analysis):
    """SPC008: blocking/unsafe patterns in the asyncio serving stack."""

    rule_id = "SPC008"
    summary = "blocking call reachable from async code / unawaited coroutine"

    def check(self, project: ProjectIndex) -> Iterable[Violation]:
        scoped = project.files_matching(*SCOPE_SUFFIXES)
        yield from self._blocking_reachability(project, scoped)
        yield from self._local_checks(project, scoped)

    # ------------------------------------------------------------------
    def _blocking_reachability(
        self, project: ProjectIndex, scoped: list[str]
    ) -> Iterable[Violation]:
        roots = [
            func for relpath in scoped
            for func in project.functions_in(relpath)
            if func["is_async"]
        ]
        reported: set[tuple[str, int]] = set()
        for root in sorted(roots, key=lambda f: str(f["qualname"])):
            yield from self._walk_root(project, root, reported)

    def _walk_root(
        self,
        project: ProjectIndex,
        root: Mapping[str, Any],
        reported: set[tuple[str, int]],
    ) -> Iterable[Violation]:
        seen = {str(root["qualname"])}
        queue: list[tuple[Mapping[str, Any], tuple[str, ...]]] = [
            (root, (str(root["name"]),))
        ]
        while queue:
            func, chain = queue.pop(0)
            relpath = project.relpath_of(str(func["qualname"]))
            if relpath is None:
                continue
            module = str(project.summaries[relpath]["module"])
            for call in func["calls"]:
                reason = _sink_reason(str(call["dotted"]))
                if reason is not None:
                    key = (relpath, int(call["line"]))
                    if key not in reported:
                        reported.add(key)
                        yield Violation(
                            relpath, int(call["line"]), self.rule_id,
                            f"{reason}; reachable from async "
                            f"'{root['qualname']}' via "
                            f"{' -> '.join(chain)}",
                        )
                    continue
                for callee in project.resolve(
                    func, str(call["dotted"]), module=module
                ):
                    if callee in seen or _allowlisted(callee):
                        continue
                    seen.add(callee)
                    target = project.functions[callee]
                    queue.append(
                        (target, (*chain, str(target["name"])))
                    )

    # ------------------------------------------------------------------
    def _local_checks(
        self, project: ProjectIndex, scoped: list[str]
    ) -> Iterable[Violation]:
        for relpath in scoped:
            module = str(project.summaries[relpath]["module"])
            for func in project.functions_in(relpath):
                for call in func["calls"]:
                    dotted = str(call["dotted"])
                    if not call["bare"]:
                        continue
                    attr = dotted.rpartition(".")[2]
                    if attr in _SPAWN_ATTRS:
                        yield Violation(
                            relpath, int(call["line"]), self.rule_id,
                            f"fire-and-forget {dotted}(...): the task "
                            "reference is dropped, so it can be collected "
                            "mid-flight and its exception is never "
                            "observed; keep a reference and attach a "
                            "done-callback",
                        )
                        continue
                    if self._is_project_async(project, func, dotted, module):
                        yield Violation(
                            relpath, int(call["line"]), self.rule_id,
                            f"coroutine {dotted}(...) is created but never "
                            "awaited: the call does nothing until awaited "
                            "or scheduled as a task",
                        )

    @staticmethod
    def _is_project_async(
        project: ProjectIndex,
        caller: Mapping[str, Any],
        dotted: str,
        module: str,
    ) -> bool:
        callees = project.resolve(caller, dotted, module=module)
        return bool(callees) and all(
            project.functions[c]["is_async"] for c in callees
        )


__all__ = ["ALLOWLIST", "AsyncSafetyAnalysis"]
