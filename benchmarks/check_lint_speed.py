#!/usr/bin/env python
"""Verify the full-repo ``sparcle lint`` pass stays fast enough to gate PRs.

The static-analysis pass is only viable as a per-PR CI gate if it is
cheap; this script turns that requirement into a checkable bound: lint
the entire ``src/`` tree from scratch (per-file rules *and* the SPC008
whole-program analysis) within ``--budget`` seconds (default 10).

The measured runs also re-assert the acceptance invariant that the tree
is clean with an **empty** baseline, so a regression in speed or
cleanliness fails the same smoke step.

Usage::

    PYTHONPATH=src python benchmarks/check_lint_speed.py
    PYTHONPATH=src python benchmarks/check_lint_speed.py --budget 10 \
        --output lint_speed.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_REPO = _HERE.parent
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.devtools import lint_paths  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget", type=float, default=10.0,
        help="maximum wall-clock seconds per full run (default: 10)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions; best run is compared (default: 3)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the timing report as JSON",
    )
    args = parser.parse_args(argv)

    timings: list[float] = []
    for _ in range(max(args.repeats, 1)):
        start = time.perf_counter()
        report = lint_paths([_REPO / "src"], root=_REPO)
        timings.append(time.perf_counter() - start)
    best = min(timings)

    ok = best <= args.budget and report.clean
    doc = {
        "files_checked": report.files_checked,
        "violations": len(report.violations),
        "suppressed": report.suppressed,
        "budget_s": args.budget,
        "best_s": best,
        "all_s": timings,
        "ok": ok,
    }
    print(
        f"sparcle lint src/: {report.files_checked} files — "
        f"{best:.3f}s (budget {args.budget:.1f}s), "
        f"{len(report.violations)} violations"
    )
    if args.output:
        Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.output}")
    if not report.clean:
        print("FAIL: lint found violations; the tree must stay clean",
              file=sys.stderr)
        return 1
    if best > args.budget:
        print(
            f"FAIL: lint took {best:.3f}s > budget {args.budget:.1f}s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
