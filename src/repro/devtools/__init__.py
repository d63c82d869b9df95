"""Developer tooling: the ``sparcle lint`` static-analysis pass.

The package has two analysis layers plus shared machinery:

* :mod:`repro.devtools.engine` — the rule-agnostic walker
  (:class:`LintEngine`), suppression/baseline handling, report
  formatting;
* :mod:`repro.devtools.rules` — the **per-file** SPARCLE rule set
  (SPC001, SPC004, SPC006, :data:`DEFAULT_RULES`): one AST at a time;
* :mod:`repro.devtools.callgraph` — the whole-program substrate:
  project symbol table and call-edge resolution;
* :mod:`repro.devtools.analyses` — the **whole-program** analysis
  (SPC008, :data:`DEFAULT_ANALYSES`): async-safety of the serving
  front-end;
* :mod:`repro.devtools.scenario_lint` — semantic validation of scenario
  JSON documents (SCN001–SCN004).

:func:`lint_paths` is the one-call entry point the CLI and CI use.
"""

from __future__ import annotations

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
) -> LintReport:
    """Run the default SPARCLE rule set and analyses over ``paths``.

    Python files get the per-file AST rules plus the whole-program
    analyses; ``.json`` files get the scenario validator.  Directories
    are walked for ``.py`` files only (scenario documents must be named
    explicitly — test fixtures and exported artifacts would otherwise
    drown the report).
    """
    json_paths = [p for p in paths if Path(p).suffix == ".json"]
    ast_paths = [p for p in paths if Path(p).suffix != ".json"]
    engine = LintEngine(
        rules if rules is not None else DEFAULT_RULES,
        analyses=analyses if analyses is not None else DEFAULT_ANALYSES,
        root=root, baseline=baseline,
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
