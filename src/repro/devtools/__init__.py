"""Developer tooling: the ``sparcle lint`` static-analysis pass.

The package has two analysis layers plus shared machinery:

* :mod:`repro.devtools.engine` — the rule-agnostic walker
  (:class:`LintEngine`), suppression/baseline handling, the on-disk
  facts cache, report formatting;
* :mod:`repro.devtools.rules` — the **per-file** SPARCLE rule set
  (SPC001, SPC002, SPC004–SPC006, :data:`DEFAULT_RULES`): one AST at a
  time;
* :mod:`repro.devtools.callgraph` / :mod:`repro.devtools.cfg` — the
  whole-program substrate: project symbol table, call-edge resolution,
  and an intraprocedural control-flow graph;
* :mod:`repro.devtools.analyses` — the **whole-program** analyses
  (SPC008–SPC010, :data:`DEFAULT_ANALYSES`): async-safety of the
  serving front-end, two-phase reserve/commit typestate, and
  wire-schema drift;
* :mod:`repro.devtools.scenario_lint` — semantic validation of scenario
  JSON documents (SCN001–SCN004).

:func:`lint_paths` is the one-call entry point the CLI and CI use;
:func:`changed_python_files` scopes it to a git diff for
``sparcle lint --changed``.
"""

from __future__ import annotations

import subprocess
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.devtools.analyses import DEFAULT_ANALYSES, Analysis
from repro.devtools.engine import (
    FileContext,
    LintConfigError,
    LintEngine,
    LintError,
    LintReport,
    Rule,
    Violation,
    format_json,
    format_text,
    load_baseline,
    write_baseline,
)
from repro.devtools.rules import DEFAULT_RULES
from repro.devtools.scenario_lint import lint_scenario, lint_scenario_dict

__all__ = [
    "Analysis",
    "DEFAULT_ANALYSES",
    "DEFAULT_RULES",
    "FileContext",
    "LintConfigError",
    "LintEngine",
    "LintError",
    "LintReport",
    "Rule",
    "Violation",
    "changed_python_files",
    "format_json",
    "format_text",
    "lint_paths",
    "lint_scenario",
    "lint_scenario_dict",
    "load_baseline",
    "write_baseline",
]


def lint_paths(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[Rule] | None = None,
    analyses: Sequence[Analysis] | None = None,
    root: str | Path | None = None,
    baseline: Iterable[str] = (),
    cache_path: str | Path | None = None,
) -> LintReport:
    """Run the default SPARCLE rule set and analyses over ``paths``.

    Python files get the per-file AST rules plus the whole-program
    analyses; ``.json`` files get the scenario validator.  Directories
    are walked for ``.py`` files only (scenario documents must be named
    explicitly — test fixtures and exported artifacts would otherwise
    drown the report).  ``cache_path`` enables the on-disk facts cache
    keyed by file mtime/size.
    """
    json_paths = [p for p in paths if Path(p).suffix == ".json"]
    ast_paths = [p for p in paths if Path(p).suffix != ".json"]
    engine = LintEngine(
        rules if rules is not None else DEFAULT_RULES,
        analyses=analyses if analyses is not None else DEFAULT_ANALYSES,
        root=root, baseline=baseline, cache_path=cache_path,
    )
    report = (
        engine.lint_paths(ast_paths) if ast_paths
        else LintReport(files_checked=0)
    )
    for path in json_paths:
        report.files_checked += 1
        report.violations.extend(lint_scenario(path))
    report.violations.sort()
    return report


def changed_python_files(
    base: str, *, root: str | Path | None = None
) -> list[Path]:
    """Python files changed vs ``base`` (git), plus untracked ones.

    The file set ``sparcle lint --changed`` scopes to: tracked files
    that differ from the merge-friendly ``git diff base`` view (deleted
    files excluded) and untracked, not-ignored files.  Raises
    :class:`LintConfigError` when git is unavailable or ``base`` does
    not resolve.
    """
    where = Path(root) if root is not None else Path.cwd()
    files: dict[Path, None] = {}
    commands = (
        ["git", "diff", "--name-only", "--diff-filter=d", base, "--", "*.py"],
        ["git", "ls-files", "--others", "--exclude-standard", "--", "*.py"],
    )
    for command in commands:
        try:
            result = subprocess.run(
                command, cwd=where, capture_output=True, text=True, check=True,
            )
        except (OSError, subprocess.CalledProcessError) as error:
            detail = getattr(error, "stderr", "") or str(error)
            raise LintConfigError(
                f"--changed needs a working git checkout "
                f"({' '.join(command)} failed: {detail.strip()})"
            ) from error
        for line in result.stdout.splitlines():
            name = line.strip()
            if name:
                candidate = where / name
                if candidate.exists():
                    files[candidate] = None
    return list(files)
