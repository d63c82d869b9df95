"""AST-based lint engine encoding SPARCLE's domain invariants.

The repo's bug history falls into a handful of mechanically detectable
classes that the tests cannot see (raw resource-key literals, float
equality on rates, broad excepts, blocking calls on the event loop).
This module provides the machinery that turns those classes into
checkable rules:

* :class:`Violation` — one finding, ordered for stable reports;
* :class:`LintError` — a file the engine could not analyze (syntax
  error, bad encoding); reported structurally, never as a traceback;
* :class:`Rule` — the interface a per-file check implements (see
  :mod:`repro.devtools.rules` for the built-in SPC001/SPC004/SPC006);
* :class:`LintEngine` — walks files/directories, parses each Python file
  once, runs every rule over the shared AST, feeds each file to the
  whole-program analyses (:mod:`repro.devtools.analyses`, SPC008),
  and applies ``# sparcle: ignore[RULE]`` suppressions plus an optional
  baseline;
* text/JSON formatting helpers used by ``sparcle lint``.

Suppression syntax, on the offending statement::

    bucket.get("cpu", 0.0)  # sparcle: ignore[SPC001]
    value = thing()         # sparcle: ignore          (all rules)
    other = thing()         # sparcle: ignore[SPC001, SPC004]

A directive anywhere on a statement's lines covers the whole statement —
in particular, a violation anchored at the first line of a multi-line
call is suppressed by a directive on its closing line.

A *baseline* file (JSON list of fingerprints) mutes known pre-existing
violations so the gate can be adopted incrementally; this repo ships with
an empty baseline on purpose — every violation the rules find is fixed,
not grandfathered.
"""

from __future__ import annotations

import ast
import json
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.exceptions import SparcleError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.analyses.base import Analysis

#: Matches ``# sparcle: ignore`` / ``# sparcle: ignore[SPC001, SPC004]``.
_SUPPRESSION = re.compile(
    r"#\s*sparcle:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)

#: Directory names never descended into during file discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".venv", "venv"})


class LintConfigError(SparcleError):
    """A lint invocation was misconfigured (bad path, bad baseline...)."""


@dataclass(frozen=True, order=True)
class Violation:
    """One static-analysis finding, sortable into a stable report order."""

    file: str
    line: int
    rule_id: str
    message: str

    def fingerprint(self) -> str:
        """Line-insensitive identity used by baseline files.

        Excluding the line number keeps baselines stable across unrelated
        edits that merely shift code up or down.
        """
        return f"{self.file}::{self.rule_id}::{self.message}"

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON form (the ``--format json`` record shape)."""
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass(frozen=True, order=True)
class LintError:
    """A file the engine could not analyze at all.

    Unlike a :class:`Violation` (a finding in parseable code), an error
    means the file never reached the rules — a syntax error, bytes that
    are not UTF-8, an unreadable path.  Errors fail the run (exit 2 from
    the CLI) because an unanalyzable file is unvetted code, not clean
    code.
    """

    file: str
    message: str

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON form (the ``--format json`` record shape)."""
        return {"file": self.file, "message": self.message}


@dataclass(frozen=True)
class FileContext:
    """Everything a rule gets about one parsed file."""

    path: Path
    #: Path relative to the lint root, with ``/`` separators — the string
    #: rules match their allowlists against and reports display.
    relpath: str
    source: str
    tree: ast.Module
    lines: tuple[str, ...]

    def violation(self, node: ast.AST, rule_id: str, message: str) -> Violation:
        """Build a violation anchored at ``node``'s source line."""
        return Violation(self.relpath, getattr(node, "lineno", 0), rule_id, message)


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`rule_id` / :attr:`summary` and implement
    :meth:`check`, yielding :class:`Violation` records for one parsed
    file.  Rules must not mutate the shared AST.
    """

    rule_id: str = "SPC000"
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        """Yield violations found in ``ctx``; default finds nothing."""
        raise NotImplementedError


def _iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, deterministically."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintConfigError(f"lint path does not exist: {path}")
        if path.is_file():
            candidates: Iterable[Path] = [path] if path.suffix == ".py" else []
        else:
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts))
            )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _suppressed_rules(line: str) -> frozenset[str] | None:
    """Rule ids suppressed on ``line``.

    ``None`` when the line carries no suppression; an empty frozenset for
    the bare ``# sparcle: ignore`` (which mutes *every* rule).
    """
    match = _SUPPRESSION.search(line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(r.strip() for r in rules.split(",") if r.strip())


def _merge_directives(
    a: frozenset[str] | None, b: frozenset[str] | None
) -> frozenset[str] | None:
    """Combine two directive sets (``None`` absent, empty = all rules)."""
    if a is None:
        return b
    if b is None:
        return a
    if not a or not b:
        return frozenset()
    return a | b


def _statement_spans(tree: ast.Module) -> Iterator[tuple[int, int]]:
    """Line spans a suppression directive anchors to, per statement.

    A compound statement (``if``/``with``/``for``/``def``…) owns only
    its header lines — a directive inside its body belongs to the inner
    statement.  A simple statement owns its full (possibly multi-line)
    extent, so a directive on the closing paren of a call suppresses the
    violation anchored at the statement's first line.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.excepthandler):
            end = node.body[0].lineno - 1 if node.body else node.lineno
            yield node.lineno, max(node.lineno, end)
            continue
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = body[0].lineno - 1
        else:
            end = getattr(node, "end_lineno", None) or node.lineno
        yield node.lineno, max(node.lineno, end)


def _suppression_index(
    tree: ast.Module, lines: Sequence[str]
) -> dict[int, frozenset[str] | None]:
    """Map each source line to the directive set that suppresses it."""
    directives: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(lines, start=1):
        rules = _suppressed_rules(line)
        if rules is not None:
            directives[lineno] = rules
    if not directives:
        return {}
    index: dict[int, frozenset[str] | None] = dict(directives)
    for start, end in _statement_spans(tree):
        combined: frozenset[str] | None = None
        for lineno in range(start, end + 1):
            if lineno in directives:
                combined = _merge_directives(combined, directives[lineno])
        if combined is None:
            continue
        for lineno in range(start, end + 1):
            index[lineno] = _merge_directives(index.get(lineno), combined)
    return index


def _line_suppressed(
    index: Mapping[int, frozenset[str] | None], line: int, rule_id: str
) -> bool:
    directive = index.get(line)
    if directive is None:
        return False
    return not directive or rule_id in directive


@dataclass
class LintReport:
    """The outcome of one engine run."""

    violations: list[Violation] = field(default_factory=list)
    errors: list[LintError] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    baselined: int = 0

    @property
    def clean(self) -> bool:
        """Whether the run found nothing actionable."""
        return not self.violations and not self.errors


class LintEngine:
    """Run rules and whole-program analyses over Python sources.

    ``root`` anchors the relative paths in reports (defaults to the
    current directory); ``baseline`` is an iterable of fingerprints (see
    :meth:`Violation.fingerprint`) to mute; ``analyses`` is the
    whole-program pass set (:data:`repro.devtools.DEFAULT_ANALYSES` in
    the CLI).
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        *,
        root: str | Path | None = None,
        baseline: Iterable[str] = (),
        analyses: Sequence["Analysis"] = (),
    ) -> None:
        ids = [rule.rule_id for rule in rules]
        ids.extend(analysis.rule_id for analysis in analyses)
        if len(set(ids)) != len(ids):
            raise LintConfigError(f"duplicate rule ids in {ids}")
        self.rules = tuple(rules)
        self.analyses = tuple(analyses)
        self.root = Path(root) if root is not None else Path.cwd()
        self.baseline = frozenset(baseline)

    # ------------------------------------------------------------------
    def _relpath(self, path: Path) -> str:
        try:
            rel = path.resolve().relative_to(self.root.resolve())
        except ValueError:
            rel = path
        return rel.as_posix()

    # ------------------------------------------------------------------
    def _parse(self, path: Path, relpath: str) -> FileContext | str:
        """The parsed file, or why it cannot be analyzed."""
        try:
            raw = path.read_bytes()
        except OSError as error:
            return f"cannot read file: {error}"
        try:
            source = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            return f"not valid UTF-8 at byte {error.start}: {error.reason}"
        if not source.strip() and path.name != "__init__.py":
            # An empty package marker is idiomatic; any other empty
            # module is unvetted dead weight, not clean code.
            return "file is empty (nothing to analyze)"
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            return f"line {error.lineno or 0}: file does not parse: {error.msg}"
        return FileContext(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            lines=tuple(source.splitlines()),
        )

    def _check_file(
        self, report: LintReport, path: Path
    ) -> tuple[FileContext, Mapping[int, frozenset[str] | None]] | None:
        """Run the per-file rules on ``path`` into ``report``.

        Returns the parsed file and its suppression index for the
        whole-program pass, or ``None`` when the file is unanalyzable
        (recorded as a :class:`LintError`).
        """
        relpath = self._relpath(path)
        ctx = self._parse(path, relpath)
        if isinstance(ctx, str):
            report.errors.append(LintError(relpath, ctx))
            return None
        suppress = _suppression_index(ctx.tree, ctx.lines)
        for rule in self.rules:
            for violation in rule.check(ctx):
                self._record(report, violation, suppress)
        return ctx, suppress

    def _record(
        self,
        report: LintReport,
        violation: Violation,
        suppress: Mapping[int, frozenset[str] | None],
    ) -> None:
        if _line_suppressed(suppress, violation.line, violation.rule_id):
            report.suppressed += 1
        elif violation.fingerprint() in self.baseline:
            report.baselined += 1
        else:
            report.violations.append(violation)

    def lint_file(self, path: str | Path) -> LintReport:
        """Lint one file with the per-file rules (no whole-program passes).

        Unanalyzable files (syntax errors, non-UTF-8 bytes) surface as
        structured :class:`LintError` entries, never tracebacks.
        """
        report = LintReport(files_checked=1)
        self._check_file(report, Path(path))
        report.violations.sort()
        return report

    def lint_paths(self, paths: Sequence[str | Path]) -> LintReport:
        """Lint every ``.py`` file reachable from ``paths``.

        Runs the per-file rules on each file, then the whole-program
        analyses once over the assembled project index.
        """
        from repro.devtools.callgraph import ProjectIndex

        report = LintReport()
        summaries: dict[str, dict[str, Any]] = {}
        suppressions: dict[str, Mapping[int, frozenset[str] | None]] = {}
        for path in _iter_python_files(paths):
            report.files_checked += 1
            checked = self._check_file(report, path)
            if checked is None or not self.analyses:
                continue
            ctx, suppress = checked
            suppressions[ctx.relpath] = suppress
            summaries[ctx.relpath] = ProjectIndex.extract_module(ctx)
        if self.analyses:
            project = ProjectIndex(summaries)
            for analysis in self.analyses:
                for violation in analysis.check(project):
                    self._record(
                        report, violation, suppressions.get(violation.file, {})
                    )
        report.violations.sort()
        report.errors.sort()
        return report


# ----------------------------------------------------------------------
# Baseline files
# ----------------------------------------------------------------------
def load_baseline(path: str | Path) -> frozenset[str]:
    """Read a baseline file (JSON list of fingerprints)."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise LintConfigError(f"baseline file not found: {path}") from None
    except json.JSONDecodeError as error:
        raise LintConfigError(f"baseline {path} is not valid JSON: {error}") from error
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise LintConfigError(f"baseline {path} must be a JSON list of strings")
    return frozenset(data)


def write_baseline(path: str | Path, violations: Iterable[Violation]) -> int:
    """Write the fingerprints of ``violations`` as a baseline; returns count."""
    fingerprints = sorted({v.fingerprint() for v in violations})
    Path(path).write_text(json.dumps(fingerprints, indent=2) + "\n")
    return len(fingerprints)


# ----------------------------------------------------------------------
# Report formatting
# ----------------------------------------------------------------------
def format_text(report: LintReport) -> str:
    """Human-readable report: one ``file:line: RULE message`` per finding."""
    lines = [
        f"{e.file}: error: {e.message}"
        for e in report.errors
    ]
    lines.extend(
        f"{v.file}:{v.line}: {v.rule_id} {v.message}"
        for v in report.violations
    )
    noun = "violation" if len(report.violations) == 1 else "violations"
    summary = (
        f"{len(report.violations)} {noun} in {report.files_checked} files "
        f"({report.suppressed} suppressed, {report.baselined} baselined)"
    )
    if report.errors:
        noun = "file error" if len(report.errors) == 1 else "file errors"
        summary += f", {len(report.errors)} {noun}"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def format_json(report: LintReport) -> str:
    """Machine-readable report (the CI artifact shape)."""
    doc = {
        "violations": [v.to_dict() for v in report.violations],
        "errors": [e.to_dict() for e in report.errors],
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "baselined": report.baselined,
        "clean": report.clean,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
