#!/usr/bin/env python
"""Verify the full-repo ``sparcle lint`` pass stays fast enough to gate PRs.

The static-analysis pass is only viable as a per-PR CI gate if it is
cheap; this script turns that requirement into two checkable bounds,
matching how the engine actually runs:

* **uncached** — lint the entire ``src/`` tree from scratch (per-file
  rules *and* the SPC008–SPC010 whole-program analyses) within
  ``--budget`` seconds (default 10);
* **cached** — repeat the same run against a warm on-disk facts cache
  within ``--cached-budget`` seconds (default 5).  The cache is keyed
  by file mtime/size, so this is the cost of an incremental re-lint.

The measured runs also re-assert the acceptance invariant that the tree
is clean with an **empty** baseline, so a regression in speed,
cleanliness, or cache correctness (a warm run must report the same
findings) fails the same smoke step.

Usage::

    PYTHONPATH=src python benchmarks/check_lint_speed.py
    PYTHONPATH=src python benchmarks/check_lint_speed.py --budget 10 \
        --cached-budget 5 --output lint_speed.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_REPO = _HERE.parent
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.devtools import lint_paths  # noqa: E402


def _timed_runs(repeats: int, cache_path: Path | None) -> tuple[list[float], object]:
    timings: list[float] = []
    report = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        report = lint_paths(
            [_REPO / "src"], root=_REPO, cache_path=cache_path
        )
        timings.append(time.perf_counter() - start)
    assert report is not None
    return timings, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget", type=float, default=10.0,
        help="maximum uncached wall-clock seconds (default: 10)",
    )
    parser.add_argument(
        "--cached-budget", type=float, default=5.0,
        help="maximum warm-cache wall-clock seconds (default: 5)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per phase; best run is compared (default: 3)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the timing report as JSON",
    )
    args = parser.parse_args(argv)

    cold_timings, cold_report = _timed_runs(args.repeats, cache_path=None)
    cold_best = min(cold_timings)

    with tempfile.TemporaryDirectory(prefix="sparcle-lint-cache-") as tmp:
        cache_path = Path(tmp) / "lint-cache.json"
        # Prime the cache, then time warm runs only.
        lint_paths([_REPO / "src"], root=_REPO, cache_path=cache_path)
        warm_timings, warm_report = _timed_runs(
            args.repeats, cache_path=cache_path
        )
    warm_best = min(warm_timings)

    same_findings = (
        [v.to_dict() for v in cold_report.violations]
        == [v.to_dict() for v in warm_report.violations]
        and cold_report.suppressed == warm_report.suppressed
    )

    ok = (
        cold_best <= args.budget
        and warm_best <= args.cached_budget
        and cold_report.clean
        and same_findings
    )
    doc = {
        "files_checked": cold_report.files_checked,
        "violations": len(cold_report.violations),
        "suppressed": cold_report.suppressed,
        "budget_s": args.budget,
        "cached_budget_s": args.cached_budget,
        "uncached_best_s": cold_best,
        "uncached_all_s": cold_timings,
        "cached_best_s": warm_best,
        "cached_all_s": warm_timings,
        "cache_findings_match": same_findings,
        "ok": ok,
    }
    print(
        f"sparcle lint src/: {cold_report.files_checked} files — "
        f"uncached {cold_best:.3f}s (budget {args.budget:.1f}s), "
        f"cached {warm_best:.3f}s (budget {args.cached_budget:.1f}s), "
        f"{len(cold_report.violations)} violations"
    )
    if args.output:
        Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.output}")
    if not cold_report.clean:
        print("FAIL: lint found violations; the tree must stay clean",
              file=sys.stderr)
        return 1
    if not same_findings:
        print("FAIL: warm-cache run reported different findings",
              file=sys.stderr)
        return 1
    if cold_best > args.budget:
        print(
            f"FAIL: uncached lint took {cold_best:.3f}s > budget "
            f"{args.budget:.1f}s",
            file=sys.stderr,
        )
        return 1
    if warm_best > args.cached_budget:
        print(
            f"FAIL: cached lint took {warm_best:.3f}s > budget "
            f"{args.cached_budget:.1f}s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
