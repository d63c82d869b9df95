"""Project symbol table and call graph for the whole-program analyses.

The per-file rules see one AST at a time; the analyses (SPC008–SPC010)
need to answer questions that span files — "is this blocking call
reachable from an ``async def`` in the server?".  This module builds the
shared substrate:

* :meth:`ProjectIndex.extract_module` distills one parsed file into a
  **JSON-serializable summary**: the module's import map and every
  function and method — qualname, async-ness, and call sites (with
  await/bare-expression context).
* :meth:`ProjectIndex.from_summaries` assembles the summaries into a
  queryable index.  Because the summaries are plain JSON, the lint
  engine caches them on disk keyed by file mtime/size and rebuilds the
  index without re-parsing unchanged files.
* :meth:`ProjectIndex.resolve` is the call-edge resolver: ``self.m``
  binds to the caller's class, bare names follow the module's import map
  (including facade re-exports, e.g. ``repro.api`` names), and
  ``obj.m`` falls back to class-hierarchy-analysis by method name —
  deliberately over-approximate, which is the safe direction for
  reachability checks.

Summaries are data, not behavior: nothing here imports the analyzed
code.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import Any

from repro.devtools.engine import FileContext


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/service/server.py`` → ``repro.service.server``; package
    ``__init__.py`` files name the package itself.  Trees without a
    ``src/`` prefix (test fixtures) keep their full dotted path.
    """
    parts = list(Path(relpath).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def dotted_chain(node: ast.expr) -> str | None:
    """Dotted text of a call target, flattening through call chains.

    ``a.b.c`` → ``"a.b.c"``; ``loop().create_task`` and
    ``asyncio.get_running_loop().create_task`` both end in
    ``".create_task"`` so suffix matching keeps working across chained
    calls.  ``None`` for subscripts and other non-name roots.
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        else:
            return None


def _walk_outside_defs(node: ast.AST) -> Iterator[ast.AST]:
    """Child nodes, not descending into nested defs/classes/lambdas.

    Code inside a nested ``def`` runs when the closure is *called*, not
    when the enclosing function runs, so its calls must not be
    attributed to the enclosing function.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        yield child
        yield from _walk_outside_defs(child)


class _ModuleExtractor:
    """Distill one parsed file into the JSON module summary."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module = module_name_for(ctx.relpath)
        self.imports: dict[str, str] = {}
        self.functions: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def run(self) -> dict[str, Any]:
        self._collect_imports()
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(stmt, cls=None, prefix=self.module)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._function(
                            sub, cls=stmt.name,
                            prefix=f"{self.module}.{stmt.name}",
                        )
        return {
            "module": self.module,
            "relpath": self.ctx.relpath,
            "imports": dict(sorted(self.imports.items())),
            "functions": self.functions,
        }

    # ------------------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if node.module:
                        self.imports[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )

    def _function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        cls: str | None,
        prefix: str,
    ) -> None:
        qualname = f"{prefix}.{node.name}"
        record: dict[str, Any] = {
            "qualname": qualname,
            "name": node.name,
            "cls": cls,
            "line": node.lineno,
            "is_async": isinstance(node, ast.AsyncFunctionDef),
            "calls": self._calls(node),
        }
        self.functions.append(record)
        for child in self._direct_nested_defs(node):
            self._function(child, cls=cls, prefix=qualname)

    @staticmethod
    def _direct_nested_defs(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Defs nested directly in ``node`` (deeper levels recurse)."""
        found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

        def scan(parent: ast.AST) -> None:
            for child in ast.iter_child_nodes(parent):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append(child)
                elif not isinstance(child, (ast.ClassDef, ast.Lambda)):
                    scan(child)

        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(stmt)
            elif not isinstance(stmt, (ast.ClassDef, ast.Lambda)):
                scan(stmt)
        return found

    def _calls(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[dict[str, Any]]:
        parent: dict[ast.AST, ast.AST] = {}
        calls: list[dict[str, Any]] = []
        for node in _walk_outside_defs(func):
            for child in ast.iter_child_nodes(node):
                parent.setdefault(child, node)
        for node in _walk_outside_defs(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_chain(node.func)
            if dotted is None:
                continue
            enclosing = parent.get(node)
            calls.append({
                "dotted": dotted,
                "line": node.lineno,
                "awaited": isinstance(enclosing, ast.Await),
                "bare": isinstance(enclosing, ast.Expr),
            })
        return calls


class ProjectIndex:
    """Queryable symbol table + call graph over module summaries."""

    def __init__(
        self,
        summaries: Mapping[str, Mapping[str, Any]],
        *,
        root: Path,
        analysis_facts: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> None:
        self.root = root
        self.summaries = dict(summaries)
        #: Per-analysis per-file extraction results: rule_id -> relpath -> facts.
        self.analysis_facts: dict[str, dict[str, Any]] = {
            rule_id: dict(per_file)
            for rule_id, per_file in (analysis_facts or {}).items()
        }
        self.modules: dict[str, Mapping[str, Any]] = {}
        self.functions: dict[str, Mapping[str, Any]] = {}
        self.methods_by_name: dict[str, list[str]] = {}
        for summary in self.summaries.values():
            self.modules[summary["module"]] = summary
            for func in summary["functions"]:
                self.functions[func["qualname"]] = func
                if func["cls"] is not None:
                    self.methods_by_name.setdefault(
                        func["name"], []
                    ).append(func["qualname"])

    # ------------------------------------------------------------------
    @classmethod
    def extract_module(cls, ctx: FileContext) -> dict[str, Any]:
        """The JSON-serializable summary of one parsed file."""
        return _ModuleExtractor(ctx).run()

    @classmethod
    def from_summaries(
        cls,
        summaries: Mapping[str, Mapping[str, Any]],
        *,
        root: str | Path,
        analysis_facts: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> "ProjectIndex":
        """Assemble an index from per-file summaries (fresh or cached)."""
        return cls(summaries, root=Path(root), analysis_facts=analysis_facts)

    # ------------------------------------------------------------------
    def files_matching(self, *suffixes: str) -> list[str]:
        """Summary relpaths ending in any of ``suffixes``, sorted.

        With no suffixes, every summarized file matches.
        """
        return sorted(
            relpath for relpath in self.summaries
            if not suffixes
            or any(relpath.endswith(suffix) for suffix in suffixes)
        )

    def functions_in(self, relpath: str) -> list[Mapping[str, Any]]:
        """Function records of one summarized file."""
        summary = self.summaries.get(relpath)
        return list(summary["functions"]) if summary else []

    def relpath_of(self, qualname: str) -> str | None:
        """The file a function qualname was extracted from."""
        module = qualname
        while module:
            summary = self.modules.get(module)
            if summary is not None and any(
                f["qualname"] == qualname for f in summary["functions"]
            ):
                return str(summary["relpath"])
            module = module.rpartition(".")[0]
        return None

    # ------------------------------------------------------------------
    def resolve(
        self, caller: Mapping[str, Any], dotted: str, *, module: str
    ) -> list[str]:
        """Project function qualnames a call may bind to (may be empty).

        ``caller`` is the calling function's record, ``module`` its
        module name.  Resolution is deliberately over-approximate for
        ``obj.method`` receivers (all project methods of that name).
        """
        parts = dotted.split(".")
        if parts[0] == "self" and len(parts) == 2 and caller["cls"]:
            qualname = f"{module}.{caller['cls']}.{parts[1]}"
            if qualname in self.functions:
                return [qualname]
            return self._cha(parts[1])
        if len(parts) == 1:
            local = f"{module}.{parts[0]}"
            if local in self.functions:
                return [local]
            imports = self.modules.get(module, {}).get("imports", {})
            if parts[0] in imports:
                return self._resolve_target(imports[parts[0]])
            return []
        imports = self.modules.get(module, {}).get("imports", {})
        if parts[0] in imports:
            target = ".".join([imports[parts[0]], *parts[1:]])
            return self._resolve_target(target)
        return self._cha(parts[-1])

    def _resolve_target(self, target: str, *, depth: int = 0) -> list[str]:
        """Follow a fully-qualified name through facade re-exports."""
        if depth > 4:
            return []
        if target in self.functions:
            return [target]
        module, _, name = target.rpartition(".")
        summary = self.modules.get(module)
        if summary is None:
            return []
        imports = summary.get("imports", {})
        if name in imports:
            return self._resolve_target(imports[name], depth=depth + 1)
        return []

    def _cha(self, method: str) -> list[str]:
        return sorted(self.methods_by_name.get(method, ()))


__all__ = [
    "ProjectIndex",
    "dotted_chain",
    "module_name_for",
]
