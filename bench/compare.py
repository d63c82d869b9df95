#!/usr/bin/env python3
"""Summarise one result file, or compare two, against the bounds.

::

    python3 bench/compare.py A.json           # medians, quartiles, spreads
    python3 bench/compare.py A.json B.json    # A = parent, B = change

Result files are what ``bench/run.py --out FILE`` appends to.  With two
files every workload x end-to-end metric gets a verdict:

``worse``       B's median is worse than A's by more than the metric's bound
``better``      B wins >= 9/10 of the seed-matched pairs (ties count for
                neither) and the medians differ by more than A's own
                interquartile distance
``same``        neither, and A's spread is within the bound
``unresolved``  neither, and A's run-to-run spread is wider than the bound

The exit code is non-zero on any ``worse`` or on a higher failed share.
Per-layer metrics have no bound; their medians are listed side by side.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

from stats import quartiles, spread

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Runs = dict[tuple[str, int], list[dict[str, Any]]]


def load(path: str, *, keep_disturbed: bool) -> Runs:
    """(workload, trace) -> runs, ordered by seed."""
    grouped: Runs = defaultdict(list)
    for run in json.loads(Path(path).read_text()):
        if keep_disturbed or not run.get("disturbed"):
            grouped[(run["workload"], run["trace"])].append(run)
    for runs in grouped.values():
        runs.sort(key=lambda run: run["seed"])
    return grouped


def values(runs: list[dict[str, Any]], metric: str) -> list[float]:
    return [run["metrics"][metric] for run in runs if metric in run["metrics"]]


def failed_share(runs: list[dict[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def verdict(
    a: list[dict[str, Any]], b: list[dict[str, Any]], metric: dict[str, Any]
) -> str:
    """The verdict for one workload x end-to-end metric."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    va, vb = values(a, name), values(b, name)
    q1, med_a, q3 = quartiles(va)
    med_b = quartiles(vb)[1]
    if not med_a:
        return "unresolved"
    if sign * (med_b - med_a) / med_a > bound:
        return "worse"
    by_seed = {run["seed"]: run["metrics"][name] for run in b}
    pairs = [
        (run["metrics"][name], by_seed[run["seed"]])
        for run in a
        if run["seed"] in by_seed
    ]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (
        wins + losses >= 10
        and wins >= 0.9 * (wins + losses)
        and abs(med_b - med_a) > q3 - q1
    ):
        return "better"
    return "same" if spread(va) <= bound else "unresolved"


def summarise(runs: Runs, spec: dict[str, Any]) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for (workload, trace), group in sorted(runs.items()):
        mode = "per-layer" if trace else "end-to-end"
        disturbed = sum(1 for run in group if run.get("disturbed"))
        print(f"== {workload}  {mode}  {len(group)} runs "
              f"({disturbed} disturbed, kept)  "
              f"failed share {failed_share(group):.4f}")
        print(f"  {'metric':<38}{'q1':>12}{'median':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}")
        for name in group[0]["metrics"]:
            q1, q2, q3 = quartiles(values(group, name))
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                s = spread(values(group, name))
                flag = " !" if s > bound else (" ~" if s > bound / 3 else "")
            print(f"  {name:<38}{q1:>12.4f}{q2:>12.4f}{q3:>12.4f}"
                  f"{spread(values(group, name)):>9.4f}"
                  f"{'' if bound is None else f'{bound:>8.2f}'}{flag}")


def compare(a: Runs, b: Runs, spec: dict[str, Any]) -> int:
    bad = 0
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        quick = any(run.get("quick") for run in a[key] + b[key])
        fa, fb = failed_share(a[key]), failed_share(b[key])
        print(f"== {workload}  {'per-layer' if trace else 'end-to-end'}  "
              f"{len(a[key])} vs {len(b[key])} runs  "
              f"failed share {fa:.4f} -> {fb:.4f}")
        if fb > fa:
            print("  ! failed share rose")
            bad += 1
        if trace:
            for name in a[key][0]["metrics"]:
                med_a = quartiles(values(a[key], name))[1]
                med_b = quartiles(values(b[key], name))[1]
                print(f"  {name:<38}{med_a:>14.4f}{med_b:>14.4f}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            med_a = quartiles(values(a[key], name))[1]
            med_b = quartiles(values(b[key], name))[1]
            result = "n/a (quick)" if quick else verdict(a[key], b[key], metric)
            bad += result == "worse"
            change = (med_b - med_a) / med_a if med_a else 0.0
            print(f"  {name:<30}{med_a:>12.4f}{med_b:>12.4f}{change:>+9.3f}"
                  f"  bound {metric['bound']:.2f}  {result}")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if len(argv) == 1:
        # Every run counts here, as it does for a caller that cannot see
        # the disturbed mark; the comparison leaves disturbed runs out.
        summarise(load(argv[0], keep_disturbed=True), spec)
        return 0
    return compare(
        load(argv[0], keep_disturbed=False),
        load(argv[1], keep_disturbed=False),
        spec,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
