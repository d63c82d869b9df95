#!/usr/bin/env python3
"""The admission benchmark: one command, five wire-level workloads.

::

    python3 bench/run.py                       # every workload, both modes
    python3 bench/run.py --workload mesh-churn --seed 3 --seconds 8 --trace 0
    python3 bench/run.py --workload dense-place --trace 1   # per-layer run
    python3 bench/run.py --quick               # 200-submit smoke, no bounds
    python3 bench/run.py --self-test           # result file vs BENCHMARK.json

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``) that
``BENCHMARK.json`` names.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import re
import shutil
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench: no src/repro next to bench/ - nothing to measure")
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layers  # noqa: E402
import stats  # noqa: E402
import wire  # noqa: E402
import workloads  # noqa: E402
from repro.perf import counters  # noqa: E402
from repro.service.protocol import SubmitRequest  # noqa: E402

OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_RESULTS = OUT / "results.json"

#: Servers set up per run; ``setup_s`` is the median, the last one is measured.
SETUPS = 3
#: ``serve --recover`` spawns per run; ``recover_s`` is the median.
RECOVERIES = 3
#: The traced run drives this share of the end-to-end run's submits through
#: each of its passes (wire, traced, untraced, serial).
TRACE_SHARE = 0.5

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_window(
    inputs: workloads.Inputs,
    record: wire.WindowRecord,
    before: Any,
    status: Any,
    topology: Any,
) -> list[str]:
    """Everything a window's outputs must satisfy; the problems found."""
    problems: list[str] = []
    workload = inputs.workload
    seen: set[str] = set()
    accepted = 0
    for request, decision, *_ in record.decided:
        if decision.app_id != request.app_id:
            problems.append(f"decision for {decision.app_id!r} answered "
                            f"the submit of {request.app_id!r}")
        if request.app_id in seen:
            problems.append(f"two decisions for {request.app_id!r}")
        seen.add(request.app_id)
        if not decision.accepted:
            continue
        accepted += 1
        if request.kind == "GR" and (
            decision.total_rate < (request.min_rate or 0.0) - 1e-9
        ):
            problems.append(f"{request.app_id}: admitted below min_rate")
        pins = {
            ct["name"]: ct["pinned_host"]
            for ct in request.graph["cts"]
            if ct["pinned_host"] is not None
        }
        for placement in decision.placements:
            for ct, host in pins.items():
                if placement["ct_hosts"].get(ct) != host:
                    problems.append(f"{request.app_id}: pin of {ct} ignored")
    if len(record.decided) + record.failed != record.attempted:
        problems.append(
            f"{record.attempted} attempted but {len(record.decided)} decided "
            f"+ {record.failed} failed"
        )
    if status.submitted != status.accepted + status.rejected:
        problems.append(
            f"status.submitted {status.submitted} != accepted "
            f"{status.accepted} + rejected {status.rejected}"
        )
    if status.submitted - before.submitted != len(record.decided):
        problems.append("status.submitted disagrees with the decisions seen")
    if status.accepted - before.accepted != accepted:
        problems.append("status.accepted disagrees with the decisions seen")
    if status.shed - before.shed != record.shed:
        problems.append(
            f"status.shed {status.shed - before.shed} != backpressure "
            f"errors seen {record.shed}"
        )
    if len(topology.shards) != workload.shards:
        problems.append(f"topology has {len(topology.shards)} shards")
    total_ncps = len(inputs.network.ncp_names)
    if any(
        s["ncps"] * workload.shards != total_ncps or not s["alive"]
        for s in topology.shards
    ):
        problems.append(f"uneven or dead shards: {topology.shards}")
    if topology.boundary_links != workload.boundary_links:
        problems.append(f"{topology.boundary_links} boundary links")
    return problems


def check_reference(
    inputs: workloads.Inputs,
    record: wire.WindowRecord,
    requests: list[SubmitRequest],
    scratch: Path,
) -> list[str]:
    """One-connection runs must equal a serial in-process replay.

    One shard: a ``SparcleScheduler`` driven through evaluate/commit
    (wire == in-process is property-proven, so any difference is a bug).
    Four shards: the in-process ``ShardCoordinator`` pipeline, because a
    region scheduler cannot place outside its region and so differs from
    one global scheduler by design.  Two-connection runs interleave in
    an order the client does not control; they get no replay.
    """
    if inputs.workload.connections != 1:
        return []
    if inputs.workload.shards == 1:
        serial = layers.serial_replay(inputs, requests)
        expected = list(zip(serial.accepted, serial.path_rates))
    else:
        replay = layers.pipeline_replay(inputs, requests, scratch / "ref-logs")
        expected = [(d.accepted, d.path_rates) for d in replay.decisions]
    got = record.outcomes()
    if got == expected:
        return []
    first = next(
        (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
        min(len(got), len(expected)),
    )
    return [
        f"wire decisions differ from the in-process replay at submit "
        f"{first} of {len(expected)}"
    ]


# ----------------------------------------------------------------------
# One measured window (shared by both modes)
# ----------------------------------------------------------------------
def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _dir_lines(path: Path) -> int:
    return sum(
        f.read_bytes().count(b"\n") for f in path.iterdir() if f.is_file()
    )


async def measure_window(
    inputs: workloads.Inputs, scratch: Path, seconds: float, setups: int
) -> dict[str, Any]:
    """Set up ``setups`` servers, measure a window on the last, kill it."""
    scenario = scratch / "scenario.json"
    scenario.write_text(json.dumps(inputs.scenario, sort_keys=True))
    setup_s: list[float] = []
    for attempt in range(setups):
        log_dir = scratch / f"logs-{attempt}"
        log_dir.mkdir()
        server, clients, took = await wire.set_up(inputs, scenario, log_dir)
        setup_s.append(took)
        if attempt < setups - 1:
            await wire.tear_down(server, clients)
    try:
        before = await clients[0].status()
        log_before = (_dir_bytes(log_dir), _dir_lines(log_dir))
        calibration = stats.calibrate()
        ticks_before = stats.machine_busy_ticks()
        record = await wire.run_window(
            server, clients, inputs, timeout_s=3 * seconds + 10
        )
        ticks = stats.machine_busy_ticks() - ticks_before
        drift = abs(stats.calibrate() / calibration - 1.0)
        status, topology, page = await wire.observe(server, clients[0])
        log_after = (_dir_bytes(log_dir), _dir_lines(log_dir))
    finally:
        await wire.tear_down(server, clients)
    busy_s = ticks / os.sysconf("SC_CLK_TCK")
    other = max(0.0, busy_s - record.server_cpu_s - record.client_cpu_s)
    other_share = other / (record.wall_s * (os.cpu_count() or 1))
    return {
        "scenario": scenario,
        "log_dir": log_dir,
        "setup_s": setup_s,
        "record": record,
        "before": before,
        "status": status,
        "topology": topology,
        "metrics_page": wire.parse_metrics(page),
        "log_bytes": log_after[0] - log_before[0],
        "log_records": log_after[1] - log_before[1],
        "calibration_drift": drift,
        "other_cpu_share": other_share,
        "disturbed": drift > stats.DISTURBED_ABOVE
        or other_share > stats.DISTURBED_ABOVE,
    }


def run_result(
    window: dict[str, Any],
    metrics: dict[str, float],
    notes: dict[str, Any],
    problems: list[str],
) -> dict[str, Any]:
    record: wire.WindowRecord = window["record"]
    return {
        "correct": not problems,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
        "notes": notes,
        "problems": problems,
        "disturbed": window["disturbed"],
    }


# ----------------------------------------------------------------------
# --trace 0: the end-to-end run
# ----------------------------------------------------------------------
async def run_end_to_end(
    inputs: workloads.Inputs, scratch: Path, seconds: float
) -> dict[str, Any]:
    window = await measure_window(inputs, scratch, seconds, SETUPS)
    record: wire.WindowRecord = window["record"]
    workload = inputs.workload
    live = record.live()
    problems = check_window(
        inputs, record, window["before"], window["status"], window["topology"]
    )

    recover_s: list[float] = []
    for _ in range(RECOVERIES):
        took, recovered = await wire.recover(
            inputs, window["scenario"], window["log_dir"]
        )
        recover_s.append(took)
        if recovered != len(live):
            problems.append(
                f"recovered {recovered} apps, {len(live)} were live at the kill"
            )
    problems += check_reference(inputs, record, inputs.requests, scratch)

    decided = len(record.decided)
    latencies = record.latency_ms()
    segments = record.segments()
    tail_q = stats.tail_percentile(decided // max(1, len(segments)))
    accepted = [d.request for d in record.decided if d.decision.accepted]
    gr_asked = sum(r.min_rate for r in inputs.requests if r.kind == "GR")
    gr_got = sum(r.min_rate for r in accepted if r.kind == "GR")
    within = sum(1 for ms in latencies if ms <= workload.limit_ms)

    def over_segments(reading) -> float:
        return stats.median([reading(segment) for segment in segments])

    metrics = {
        "setup_s": stats.median(window["setup_s"]),
        # An open loop decides at the rate it is offered: its segments
        # count arrivals, not capacity, so it reports the whole window.
        "decisions_per_s": decided / record.wall_s
        if workload.loop == "open"
        else over_segments(lambda s: s.decisions_per_s),
        "latency_p50_ms": over_segments(lambda s: stats.median(s.latency_ms)),
        "latency_tail_ms": over_segments(
            lambda s: stats.percentile(s.latency_ms, tail_q)
        ),
        "withdraw_p50_ms": over_segments(lambda s: stats.median(s.withdraw_ms)),
        "slo_met_share": within / record.attempted,
        "accepted_share": len(accepted) / max(1, decided),
        "gr_rate_admitted_share": gr_got / gr_asked if gr_asked else 0.0,
        "recover_s": stats.median(recover_s),
        "server_cpu_ms_per_decision": over_segments(lambda s: s.server_cpu_ms),
        "server_peak_rss_mb": record.peak_rss_mb,
        "log_kb_per_decision": window["log_bytes"] / 1024.0 / max(1, decided),
    }
    notes = {
        "window_s": record.wall_s,
        "decided": decided,
        "whole_window_decisions_per_s": decided / record.wall_s,
        "whole_window_cpu_ms_per_decision":
            record.server_cpu_s * 1e3 / max(1, decided),
        "whole_window_latency_p50_ms": stats.median(latencies),
        "whole_window_latency_p95_ms": stats.percentile(latencies, 95),
        "segments": len(segments),
        "segment_decisions_per_s": [s.decisions_per_s for s in segments],
        "segment_latency_p50_ms": [stats.median(s.latency_ms) for s in segments],
        "latency_tail_percentile": tail_q,
        "latency_limit_ms": workload.limit_ms,
        "failed_share": record.failed / record.attempted,
        "shed": record.shed,
        "setup_s_samples": window["setup_s"],
        "recover_s_samples": recover_s,
        "calibration_drift": window["calibration_drift"],
        "other_cpu_share": window["other_cpu_share"],
        "generator_lag_ms_p99": stats.percentile(record.lag_ms, 99),
    }
    return run_result(window, metrics, notes, problems)


# ----------------------------------------------------------------------
# --trace 1: the per-layer run
# ----------------------------------------------------------------------
async def run_traced(
    inputs: workloads.Inputs, scratch: Path, seconds: float
) -> dict[str, Any]:
    """One wire window plus the in-process replays, on the same prefix."""
    workload = inputs.workload
    count = max(20, int(len(inputs.requests) * TRACE_SHARE))
    prefix = dataclasses.replace(
        inputs,
        requests=inputs.requests[:count],
        arrivals=inputs.arrivals[:count],
    )
    window = await measure_window(prefix, scratch, seconds, setups=1)
    record: wire.WindowRecord = window["record"]
    problems = check_window(
        prefix, record, window["before"], window["status"], window["topology"]
    )

    spans = layers.Spans()
    snap_before = counters.snapshot()
    traced = layers.pipeline_replay(
        prefix, prefix.requests, scratch / "traced-logs", spans
    )
    snap_after = counters.snapshot()
    untraced = layers.pipeline_replay(
        prefix, prefix.requests, scratch / "untraced-logs"
    )
    serial = layers.serial_replay(prefix, prefix.requests)
    if workload.connections == 1:
        if record.outcomes() != [
            (d.accepted, d.path_rates) for d in traced.decisions
        ]:
            problems.append("wire decisions differ from the traced pipeline")

    covered, close = spans.coverage("request")
    if covered < 0.95:
        problems.append(
            f"spans cover only {covered:.3f} of the request totals"
        )
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"{workload.name}.trace.json")

    decided = max(1, len(record.decided))
    wire_ms = record.latency_ms()
    page = window["metrics_page"]
    epochs = window["status"].epoch - window["before"].epoch
    gateway_epochs = page.get("sparcle_gateway_epochs", 0.0)
    conflicts = {
        kind: page.get(f'sparcle_gateway_conflicts{{kind="{kind}"}}', 0.0)
        for kind in ("BE", "GR")
    }
    metrics: dict[str, float] = {}
    metrics.update(layers.protocol_metrics(spans, traced))
    metrics.update({
        "server.ack_ms_p50": stats.median(
            [(d.acked - d.began) * 1e3 for d in record.decided]
        ),
        "server.decision_wait_ms_p50": stats.median(
            [(d.decided - d.acked) * 1e3 for d in record.decided]
        ),
        "server.residual_ms": stats.median(wire_ms)
        - stats.median(spans.durations_ms("request")),
        "server.epochs_per_decision": epochs / decided,
        "server.busy_share": record.server_cpu_s / record.wall_s,
        "server.shed": record.shed,
        "generator.lag_ms_p99": stats.percentile(record.lag_ms, 99),
        "generator.cpu_share": record.client_cpu_s / record.wall_s,
    })
    metrics.update(layers.shard_metrics(spans, traced))
    metrics.update({
        "shard.log_bytes_per_decision": window["log_bytes"] / decided,
        "shard.log_records_per_decision": window["log_records"] / decided,
    })
    metrics.update(layers.log_metrics(window["log_dir"], scratch))
    metrics.update({
        "gateway.epochs": gateway_epochs,
        "gateway.epoch_ms_sum":
            page.get("sparcle_gateway_epoch_seconds_sum", 0.0) * 1e3,
        "gateway.batch_mean":
            (window["status"].submitted + sum(conflicts.values()))
            / gateway_epochs if gateway_epochs else 0.0,
        "gateway.conflicts_be": conflicts["BE"],
        "gateway.conflicts_gr": conflicts["GR"],
        "gateway.serial_fallbacks":
            page.get("sparcle_gateway_serial_fallbacks", 0.0),
    })
    metrics.update(layers.gateway_stats(prefix, prefix.requests))
    metrics.update(layers.scheduler_metrics(serial))
    metrics.update(layers.availability_metrics(prefix.network, serial))
    assign = layers.assignment_metrics(spans, snap_before, snap_after)
    metrics.update(assign)
    metrics.update(layers.routing_metrics(prefix, serial, assign))
    metrics.update(layers.allocation_metrics(serial))
    metrics.update({
        "perf.trace_overhead_share":
            (traced.wall_s - untraced.wall_s) / untraced.wall_s,
        "perf.span_sum_share": covered,
        "perf.calibration_drift": window["calibration_drift"],
        "perf.other_cpu_share": window["other_cpu_share"],
    })
    notes = {
        "submits": count,
        "wire_window_s": record.wall_s,
        "traced_pipeline_s": traced.wall_s,
        "untraced_pipeline_s": untraced.wall_s,
        "serial_replay_s": serial.wall_s,
        "requests_within_5pct_of_span_sum": close,
        "trace_file": str((OUT / f"{workload.name}.trace.json")
                          .relative_to(ROOT)),
    }
    return run_result(window, metrics, notes, problems)


# ----------------------------------------------------------------------
# Driving runs
# ----------------------------------------------------------------------
def run_once(
    name: str, seed: int, seconds: float, trace: int, submits: int | None,
    *, rerun_disturbed: bool,
) -> dict[str, Any]:
    """One run of one workload, re-run once if disturbed and allowed to."""
    workload = workloads.WORKLOADS[name]
    count = submits if submits is not None else workload.submits(seconds)
    inputs = workloads.generate(name, seed, count)
    runner = run_traced if trace else run_end_to_end
    for attempt in (1, 2):
        scratch = OUT / f"run-{name}-{os.getpid()}"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            result = asyncio.run(runner(inputs, scratch, seconds))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if not (result["disturbed"] and rerun_disturbed) or attempt == 2:
            break
        print(
            f"# {name}: run disturbed (calibration drift "
            f"{result['notes'].get('calibration_drift', 0):.3f}); re-running once",
            flush=True,
        )
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        quick=submits is not None,
    )
    return result


def expected_names(spec: dict[str, Any], trace: int) -> dict[str, str]:
    """Metric name -> unit for one mode, from ``BENCHMARK.json``."""
    return {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }


def final_object(result: dict[str, Any], spec: dict[str, Any]) -> dict[str, Any]:
    """The contract's result object; fails loudly on a name mismatch."""
    units = expected_names(spec, result["trace"])
    if set(units) != set(result["metrics"]):
        missing = sorted(set(units) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(units))
        raise SystemExit(
            f"bench: metrics disagree with BENCHMARK.json "
            f"(missing {missing}, unlisted {extra})"
        )
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def print_result(result: dict[str, Any], spec: dict[str, Any]) -> None:
    units = expected_names(spec, result["trace"])
    mode = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(
        f"== {result['workload']}  seed {result['seed']}  {mode}  "
        f"attempted {result['attempted']}  failed {result['failed']}  "
        f"correct {result['correct']}"
        + ("  DISTURBED" if result["disturbed"] else "")
    )
    for name, value in result["metrics"].items():
        print(f"  {name:<40} {value:>14.4f} {units.get(name, '')}")
    for name, value in result["notes"].items():
        print(f"  # {name}: {value}")
    for problem in result["problems"]:
        print(f"  ! {problem}")
    sys.stdout.flush()


def append_results(path: Path, results: list[dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(existing + results, indent=1) + "\n")


# ----------------------------------------------------------------------
# --self-test
# ----------------------------------------------------------------------
def validate(spec: dict[str, Any], results: list[dict[str, Any]]) -> list[str]:
    """The spec's own limits, then every stored run against the spec."""
    problems: list[str] = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys are {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not _NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append(f"{len(spec['workloads'])} workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append(f"{len(spec['end_to_end'])} end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append(f"{len(spec['per_layer'])} per-layer metrics")
    if any(m["bound"] > 0.25 for m in spec["end_to_end"]):
        problems.append("a bound above 0.25")
    if not any(
        (m["name"], m["unit"], m["better"]) == ("setup_s", "s", "lower")
        for m in spec["end_to_end"]
    ):
        problems.append("no setup_s metric in seconds, lower is better")
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("workloads differ from bench/workloads.py")
    for name in workloads.WORKLOADS:
        same = [workloads.generate(name, 7, 40).fingerprint() for _ in "ab"]
        other = workloads.generate(name, 8, 40).fingerprint()
        if same[0] != same[1] or same[0] == other:
            problems.append(f"{name}: inputs do not follow the seed")
    for run in results:
        label = f"{run.get('workload')} seed {run.get('seed')} trace {run.get('trace')}"
        if run.get("workload") not in workloads.WORKLOADS:
            problems.append(f"{label}: unknown workload")
            continue
        wanted = set(expected_names(spec, run["trace"]))
        if set(run["metrics"]) != wanted:
            problems.append(
                f"{label}: metrics differ from BENCHMARK.json by "
                f"{sorted(wanted ^ set(run['metrics']))}"
            )
        if not run["correct"]:
            problems.append(f"{label}: output check failed: {run['problems']}")
    return problems


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None,
        help="0 = end-to-end run, 1 = per-layer traced run "
        "(default: 0 with --workload, both without)",
    )
    parser.add_argument("--repeat", type=int, default=1,
                        help="end-to-end runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--quick", action="store_true",
                        help=f"{workloads.QUICK_SUBMITS} submits per workload")
    parser.add_argument("--out", type=Path, default=None,
                        help="append the runs to this result file")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    submits = workloads.QUICK_SUBMITS if args.quick else None
    if args.self_test:
        path = args.out or DEFAULT_RESULTS
        if not path.exists():
            print(f"# no {path}; producing it with --quick")
            code = main(
                ["--quick", "--seed", str(args.seed), "--out", str(path)]
            )
            if code:
                return code
        problems = validate(spec, json.loads(path.read_text()))
        for problem in problems:
            print(f"! {problem}")
        print(f"self-test: {path} vs BENCHMARK.json: "
              + ("FAILED" if problems else "ok"))
        return 1 if problems else 0

    if args.workload:
        trace = args.trace or 0
        # One run, one measurement: a re-run here could double the time of
        # every run of a caller that budgets for them.
        result = run_once(
            args.workload, args.seed, args.seconds, trace, submits,
            rerun_disturbed=False,
        )
        print_result(result, spec)
        if args.out:
            append_results(args.out, [result])
        print(json.dumps(final_object(result, spec)), flush=True)
        return 0 if result["correct"] else 1

    results = []
    for name in workloads.WORKLOADS:
        modes = [0, 1] if args.trace is None else [args.trace]
        for trace in modes:
            for k in range(args.repeat if trace == 0 else 1):
                result = run_once(
                    name, args.seed + k, args.seconds, trace, submits,
                    rerun_disturbed=True,
                )
                print_result(result, spec)
                final_object(result, spec)
                results.append(result)
    path = args.out or DEFAULT_RESULTS
    append_results(path, results)
    print(f"wrote {len(results)} runs to {path}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
