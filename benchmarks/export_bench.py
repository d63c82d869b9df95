#!/usr/bin/env python
"""Export baseline-vs-optimized assignment timings to ``BENCH_assignment.json``.

For every scenario in :data:`bench_scalability.SCENARIOS` this script times
the straight-line pre-optimization reference (``tests/assignment_oracle.py``,
``reference_assign``) against the optimized ``sparcle_assign``, checks that
both return the *same decisions* (hosts, routes, rate, order), and writes a
JSON report with per-scenario ``baseline_ms`` / ``optimized_ms`` /
``speedup`` plus a ``repro.perf`` counter snapshot of the optimized runs.

Every scenario is additionally timed with the dict oracle of
``tests/routing_oracles.py`` substituted for every one of Algorithm 2's
point queries (``tests.routing_oracles.dict_point_queries``: the
``widest_path`` calls and the floored commit routes), recorded as
``dict_kernel_ms``.  The two runs alternate round by round (the one that
goes first alternating too) and ``kernel_speedup`` is the median of the
per-round ``dict / optimized`` ratios, so a slow spell on a shared machine
hits both sides of a pair instead of one median.
Algorithm 2 reads its widths from the all-pairs table either way, so the
two runs differ only on the point queries that route committed TTs (and
confirm tie-breaks).
The :data:`NO_REFERENCE` scenarios (dense-48x20, dense-96x29) are too large
for the straight-line reference altogether; there the dict-oracle run
doubles as the decision-identity check and ``baseline_ms`` / ``speedup``
are omitted.

Usage::

    PYTHONPATH=src python benchmarks/export_bench.py            # full run
    PYTHONPATH=src python benchmarks/export_bench.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/export_bench.py \
        --quick --min-speedup 15                                # CI perf gate
    PYTHONPATH=src python benchmarks/export_bench.py \
        --from-json .benchmarks.json                            # merge pytest
                                                                # -benchmark stats

``--min-speedup X`` fails the run (exit code 1) unless dense-24x14's
``speedup`` (straight-line reference / optimized) is at least ``X``; with
``--quick`` the gate scenario is pulled back in (3 timing rounds) even
though it is otherwise skipped.
``--min-small-speedup Y`` is the small-scenario non-regression gate: every
:data:`SMALL_GATE_IDS` scenario must keep ``kernel_speedup >= Y``, i.e. the
CSR kernel's compile/warm-up cost may never make a tiny network slower
than the dict oracle would route it.  Those rows run
:data:`SMALL_GATE_ROUNDS` interleaved pairs.
``--from-json`` merges a pytest-benchmark ``--benchmark-json`` file (records
are matched on the ``bench_id`` tag added by ``benchmarks/conftest.py``)
into the report as ``pytest_benchmark_ms`` so both timing sources live in
one artifact.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_REPO = _HERE.parent
for entry in (str(_REPO / "src"), str(_HERE), str(_REPO)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench_scalability import SCENARIOS  # noqa: E402
from repro.core.assignment import sparcle_assign  # noqa: E402
from repro.perf import counters  # noqa: E402
from tests.assignment_oracle import reference_assign  # noqa: E402
from tests.routing_oracles import dict_point_queries  # noqa: E402

#: Scenarios too slow for the CI smoke job (skipped under --quick).
HEAVY = {"dense-24x14", "dense-48x20", "dense-96x29"}

#: Scenarios where the straight-line reference itself is intractable: the
#: dict-oracle run is the decision-identity check and the timing baseline.
NO_REFERENCE = {"dense-48x20", "dense-96x29"}

#: The scenario the --min-speedup gate checks.
GATE_ID = "dense-24x14"

#: Small scenarios (15-19 NCPs + links) where the CSR compile/warm-up is
#: largest relative to the search; the --min-small-speedup gate holds
#: their kernel_speedup at ~parity with the dict oracle.
SMALL_GATE_IDS = ("star-8", "linear-graph-4", "linear-graph-8",
                  "linear-graph-16")

#: Interleaved pairs per SMALL_GATE_IDS row under --min-small-speedup:
#: enough that the median ratio of a build against itself stays within
#: a few percent of 1.0 on a busy 2-core machine.
SMALL_GATE_ROUNDS = 41


def _time_ms(fn, graph, network, rounds: int) -> tuple[float, object]:
    """Median wall-clock milliseconds over ``rounds`` runs, plus one result."""
    samples = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn(graph, network)
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples), result


def _time_pairs_ms(fn_a, fn_b, graph, network, rounds: int):
    """Time ``fn_a`` and ``fn_b`` in ``rounds`` back-to-back pairs.

    The one that goes first alternates.  Returns both medians (ms), the
    median of the per-round ``a / b`` ratios, and one result of each.
    """
    samples: tuple[list[float], list[float]] = ([], [])
    results: list[object] = [None, None]
    for index in range(rounds):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for side in order:
            start = time.perf_counter()
            results[side] = (fn_a, fn_b)[side](graph, network)
            samples[side].append((time.perf_counter() - start) * 1000.0)
    ratio = statistics.median(
        a / b if b > 0 else float("inf") for a, b in zip(*samples)
    )
    return (
        statistics.median(samples[0]),
        statistics.median(samples[1]),
        ratio,
        results[0],
        results[1],
    )


def _dict_oracle_assign(graph, network):
    """``sparcle_assign`` with every point query on the dict oracle."""
    with dict_point_queries():
        return sparcle_assign(graph, network)


def _assert_same_decisions(bench_id: str, opt, ref, oracle: str) -> None:
    if (
        opt.placement.ct_hosts != ref.placement.ct_hosts
        or opt.placement.tt_routes != ref.placement.tt_routes
        or opt.rate != ref.rate
        or opt.placement_order != ref.placement_order
    ):
        raise SystemExit(
            f"decision mismatch on {bench_id!r}: optimized != {oracle}"
        )


def run(
    quick: bool,
    rounds: int,
    min_speedup: float | None = None,
    min_small_speedup: float | None = None,
) -> dict:
    scenarios = []
    counters.reset()
    for bench_id, build in SCENARIOS.items():
        gated = min_speedup is not None and bench_id == GATE_ID
        small_gated = (
            min_small_speedup is not None and bench_id in SMALL_GATE_IDS
        )
        if quick and bench_id in HEAVY and not gated:
            print(f"  {bench_id:<16} skipped (--quick)")
            continue
        graph, network = build()
        if quick:
            # Gate scenarios need a stable median even in smoke mode.
            n_rounds = 3 if gated else 1
        else:
            # The NO_REFERENCE cases take seconds per dict-oracle round.
            n_rounds = min(rounds, 3) if bench_id in NO_REFERENCE else rounds
        pairs = max(n_rounds, SMALL_GATE_ROUNDS) if small_gated else n_rounds

        dict_ms, optimized_ms, kernel_speedup, dict_result, opt = (
            _time_pairs_ms(
                _dict_oracle_assign, sparcle_assign, graph, network, pairs
            )
        )
        _assert_same_decisions(bench_id, opt, dict_result, "dict oracle")
        row = {
            "bench_id": bench_id,
            "n_ncps": len(network.ncp_names),
            "n_links": len(network.links),
            "n_cts": len(graph.cts),
            "n_tts": len(graph.tts),
            "rate": opt.rate,
            "dict_kernel_ms": round(dict_ms, 3),
            "optimized_ms": round(optimized_ms, 3),
            "kernel_speedup": round(kernel_speedup, 2),
        }
        if bench_id in NO_REFERENCE:
            print(
                f"  {bench_id:<16} dict {dict_ms:11.1f} ms   "
                f"array {optimized_ms:8.1f} ms   "
                f"{kernel_speedup:5.1f}x (no reference)"
            )
        else:
            baseline_ms, ref = _time_ms(
                reference_assign, graph, network, n_rounds
            )
            _assert_same_decisions(bench_id, opt, ref, "reference")
            speedup = (
                baseline_ms / optimized_ms if optimized_ms > 0 else float("inf")
            )
            row["baseline_ms"] = round(baseline_ms, 3)
            row["speedup"] = round(speedup, 2)
            print(
                f"  {bench_id:<16} reference {baseline_ms:8.1f} ms   "
                f"dict {dict_ms:8.1f} ms   array {optimized_ms:8.1f} ms   "
                f"{speedup:5.1f}x / {kernel_speedup:4.1f}x"
            )
        scenarios.append(row)
    return {
        "benchmark": "sparcle_assign vs straight-line reference",
        "command": "PYTHONPATH=src python benchmarks/export_bench.py"
        + (" --quick" if quick else ""),
        "rounds": 1 if quick else rounds,
        "quick": quick,
        "scenarios": scenarios,
        "perf": counters.snapshot(),
    }


def check_min_speedup(report: dict, min_speedup: float) -> None:
    """Fail unless the gate scenario's speedup over the reference clears the bar."""
    rows = {row["bench_id"]: row for row in report["scenarios"]}
    gate = rows.get(GATE_ID)
    if gate is None:
        raise SystemExit(f"--min-speedup: gate scenario {GATE_ID!r} did not run")
    if gate["speedup"] < min_speedup:
        raise SystemExit(
            f"--min-speedup gate failed: {GATE_ID} sparcle_assign is "
            f"{gate['speedup']:.2f}x vs the straight-line reference "
            f"(required >= {min_speedup:.2f}x)"
        )
    print(
        f"min-speedup gate OK: {GATE_ID} {gate['speedup']:.2f}x "
        f">= {min_speedup:.2f}x"
    )


def check_min_small_speedup(report: dict, min_small_speedup: float) -> None:
    """Fail if any small scenario routes slower than under the dict oracle."""
    rows = {row["bench_id"]: row for row in report["scenarios"]}
    failures = []
    for bench_id in SMALL_GATE_IDS:
        row = rows.get(bench_id)
        if row is None:
            raise SystemExit(
                f"--min-small-speedup: scenario {bench_id!r} did not run"
            )
        if row["kernel_speedup"] < min_small_speedup:
            failures.append(f"{bench_id}={row['kernel_speedup']:.2f}x")
    if failures:
        raise SystemExit(
            "--min-small-speedup gate failed (required >= "
            f"{min_small_speedup:.2f}x vs the dict oracle): "
            + ", ".join(failures)
        )
    print(
        f"min-small-speedup gate OK: {', '.join(SMALL_GATE_IDS)} all >= "
        f"{min_small_speedup:.2f}x"
    )


def merge_pytest_benchmark(report: dict, json_path: Path) -> None:
    """Fold ``--benchmark-json`` medians into the report, keyed on bench_id."""
    payload = json.loads(json_path.read_text())
    by_id = {
        record.get("extra_info", {}).get("bench_id", record.get("name")): record
        for record in payload.get("benchmarks", [])
    }
    for scenario in report["scenarios"]:
        record = by_id.get(scenario["bench_id"])
        if record is not None:
            scenario["pytest_benchmark_ms"] = round(
                record["stats"]["median"] * 1000.0, 3
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="single round per scenario, skip the heaviest cases (CI smoke)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="timing rounds per scenario (median is reported; default 5)",
    )
    parser.add_argument(
        "--output", type=Path, default=_REPO / "BENCH_assignment.json",
        help="where to write the report (default: BENCH_assignment.json)",
    )
    parser.add_argument(
        "--from-json", type=Path, default=None,
        help="pytest-benchmark --benchmark-json file to merge into the report",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help=f"fail unless {GATE_ID}'s speedup (straight-line reference vs "
        "sparcle_assign) reaches this factor; forces the gate scenario to "
        "run even under --quick",
    )
    parser.add_argument(
        "--min-small-speedup", type=float, default=None,
        help="fail unless every small scenario (star-8, linear-graph-*) "
        "keeps kernel_speedup at least this factor — the small-network "
        "non-regression gate",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.from_json is not None and not args.from_json.is_file():
        parser.error(f"--from-json file not found: {args.from_json}")

    print(f"timing {len(SCENARIOS)} scenarios "
          f"({'quick' if args.quick else f'{args.rounds} rounds'}):")
    report = run(args.quick, args.rounds, args.min_speedup,
                 args.min_small_speedup)
    if args.from_json is not None:
        merge_pytest_benchmark(report, args.from_json)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.min_speedup is not None:
        check_min_speedup(report, args.min_speedup)
    if args.min_small_speedup is not None:
        check_min_small_speedup(report, args.min_small_speedup)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
