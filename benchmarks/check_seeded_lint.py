#!/usr/bin/env python
"""Self-test: every whole-program analysis must fire on its fixture.

A whole-program analysis can die silently — a scope suffix that no
longer matches, an extractor that returns nothing, a resolver change
that drops every call edge — and the tree keeps linting "clean".  This
script guards against that: it lints the committed seeded-violation
fixture tree (``tests/devtools/fixtures/seeded/``, a miniature serving
front-end with one deliberate bug per SPC008 pattern) and fails unless
every analysis in ``DEFAULT_ANALYSES`` (today SPC008 alone) reports at
least one violation.

Usage::

    PYTHONPATH=src python benchmarks/check_seeded_lint.py
    PYTHONPATH=src python benchmarks/check_seeded_lint.py --output seeded.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_REPO = _HERE.parent
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.devtools import DEFAULT_ANALYSES, lint_paths  # noqa: E402

FIXTURES = _REPO / "tests" / "devtools" / "fixtures" / "seeded"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the per-analysis firing counts as JSON",
    )
    args = parser.parse_args(argv)

    report = lint_paths([FIXTURES], root=_REPO)
    counts = {analysis.rule_id: 0 for analysis in DEFAULT_ANALYSES}
    for violation in report.violations:
        if violation.rule_id in counts:
            counts[violation.rule_id] += 1
    missing = sorted(rid for rid, n in counts.items() if n == 0)

    doc = {
        "fixtures": str(FIXTURES.relative_to(_REPO)),
        "files_checked": report.files_checked,
        "violations": len(report.violations),
        "per_analysis": counts,
        "errors": [e.to_dict() for e in report.errors],
        "ok": not missing and not report.errors,
    }
    for rule_id, count in sorted(counts.items()):
        print(f"{rule_id}: fired {count}x on the seeded fixtures")
    if args.output:
        Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.output}")
    if report.errors:
        for error in report.errors:
            print(f"FAIL: fixture error {error.file}: {error.message}",
                  file=sys.stderr)
        return 1
    if missing:
        print(
            f"FAIL: analyses never fired on their seeded fixtures: "
            f"{', '.join(missing)} — a silently-dead analysis",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
