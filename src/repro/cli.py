"""Command-line interface: ``sparcle`` / ``python -m repro``.

Subcommands:

``experiment <id> [--trials N] [--emulate] [--export DIR]``
    Reproduce one of the paper's figures (or ``all``); optionally write
    CSV/JSON artifacts per experiment.

``schedule <scenario.json> [--algorithm NAME]``
    Run task assignment on a scenario file and print the placement,
    stable rate, and utilization digest.

``emulate <scenario.json> [--load FACTOR] [--duration SECONDS]``
    Drive the scenario through the discrete-event emulator and report the
    achieved processing rate.

``trace <id> [--out-dir DIR] [--capacity N]``
    Run one experiment with structured tracing enabled and export the
    JSONL trace, Prometheus-style snapshot, and merged run report.

``perf <scenario.json> [--algorithm NAME] [--format prom|json]``
    Run task assignment on a scenario and print the performance counters
    it recorded (Prometheus text format or the merged JSON report).

``gateway <scenario.json> [--requests N]``
    Synthesize a burst of admission requests from a scenario and push it
    through the batched admission gateway, comparing wall-clock
    throughput and the accept set against one-at-a-time submission.

``serve <scenario.json> [--port P] [--burst N] [--recover]``
    Run the asyncio serving front-end: a versioned JSON-lines admission
    endpoint over the sharded control plane (``/metrics`` over HTTP on
    the same port).  ``--burst N`` is a one-process self-test that
    drives a synthesized burst through a local client and exits.

``lint [paths ...] [--format text|json] [--baseline FILE]``
    Run the SPARCLE static-analysis pass (the SPC rules and the SPC008
    analysis on ``.py`` paths, the SCN scenario validator on ``.json``
    paths) and exit non-zero when violations remain.
    ``--write-baseline`` records the current findings so they can be
    burned down incrementally.

The observability-oriented subcommands (``trace``, ``perf``, ``gateway``)
share ``--seed`` / ``--out-dir`` conventions via one helper.  The sharded
subcommands (``serve``, ``shards``) extend the same group with
``--log-dir``, and ``shards --kill-recover`` is the spelling consistent
with ``serve --recover``.

For backward compatibility a bare experiment id (``sparcle fig6``) is
rewritten to ``sparcle experiment fig6``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.scenario import ScenarioSpec
    from repro.core.scheduler import BERequest, GRRequest

#: Experiment runners with fixed internal trial structure: the CLI's
#: ``--trials`` flag does not apply to them.
_NO_TRIALS = ("fig6", "fig10", "robustness", "repair", "gateway", "federation")

#: Algorithms selectable from the command line.
CLI_ALGORITHMS = (
    "sparcle", "gs", "tstorm", "vne", "heft", "rstorm", "optimal",
)


def _experiments() -> dict[str, Callable[..., object]]:
    """The experiment registry, imported on first use.

    ``repro.experiments`` pulls in every figure runner plus the emulator
    and simulator packages; ``serve`` (whose start-up is the recovery
    window) and the other scenario subcommands never need it.
    """
    from repro.experiments import EXPERIMENTS

    return EXPERIMENTS


def _experiment_id(*extra: str) -> Callable[[str], str]:
    """An argparse ``type=`` accepting experiment ids (plus ``extra``).

    The stand-in for ``choices=sorted(EXPERIMENTS)``: the registry is
    only resolved when an ``experiment`` / ``trace`` argument is parsed.
    """

    def parse(value: str) -> str:
        known = [*sorted(_experiments()), *extra]
        if value not in known:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} (choose from {', '.join(known)})"
            )
        return value

    return parse


def _resolve_algorithm(name: str) -> Callable[..., object]:
    from repro.baselines import (
        gs_assign,
        heft_assign,
        optimal_assign,
        tstorm_assign,
        vne_assign,
    )
    from repro.baselines.rstorm import rstorm_assign
    from repro.core.assignment import sparcle_assign

    table = {
        "sparcle": sparcle_assign,
        "gs": gs_assign,
        "tstorm": tstorm_assign,
        "vne": vne_assign,
        "heft": heft_assign,
        "rstorm": rstorm_assign,
        "optimal": optimal_assign,
    }
    return table[name]


def _add_run_options(
    parser: argparse.ArgumentParser,
    *,
    seed: bool = True,
    out_dir: str | None = None,
    out_help: str | None = None,
    log_dir: bool = False,
) -> None:
    """Attach the shared ``--seed`` / ``--out-dir`` options to a subcommand.

    Every run-producing subcommand spells these the same way.  The
    sharded subcommands (``serve`` / ``shards``) additionally share
    ``--log-dir`` (pass ``log_dir=True``), so the whole flag group is
    spelled once.
    """
    if seed:
        parser.add_argument(
            "--seed", type=int, default=None,
            help="override the run's fixed RNG seed (when it has one)",
        )
    parser.add_argument(
        "--out-dir", metavar="DIR", default=out_dir,
        help=out_help or "directory for exported artifacts",
    )
    if log_dir:
        parser.add_argument(
            "--log-dir", metavar="DIR", default=None,
            help="write durable JSONL event logs (shard-N.jsonl, "
            "coordinator.jsonl) into DIR",
        )


def _seed_kwargs(run: Callable[..., object], seed: int | None) -> dict[str, object]:
    """``{"seed": seed}`` if the runner accepts a seed, else empty."""
    if seed is None:
        return {}
    if "seed" not in inspect.signature(run).parameters:
        return {}
    return {"seed": seed}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="sparcle",
        description="SPARCLE (ICDCS 2020) reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser(
        "experiment", help="reproduce one of the paper's figures"
    )
    experiment.add_argument(
        "experiment", type=_experiment_id("all"), metavar="ID",
        help="which figure to reproduce ('all' runs every one)",
    )
    experiment.add_argument(
        "--trials", type=int, default=None,
        help="number of random trials for sweep experiments",
    )
    experiment.add_argument(
        "--emulate", action="store_true",
        help="also run the discrete-event emulator where supported (fig6)",
    )
    experiment.add_argument(
        "--export", metavar="DIR", default=None,
        help="write <id>.csv and <id>.json artifacts into DIR",
    )
    experiment.add_argument(
        "--seed", type=int, default=None,
        help="override the experiment's fixed RNG seed (when it has one)",
    )

    schedule = sub.add_parser(
        "schedule", help="run task assignment on a scenario file"
    )
    schedule.add_argument("scenario", help="path to a scenario JSON file")
    schedule.add_argument(
        "--algorithm", choices=CLI_ALGORITHMS, default="sparcle",
        help="task-assignment algorithm to run",
    )

    emulate = sub.add_parser(
        "emulate", help="run a scenario through the discrete-event emulator"
    )
    emulate.add_argument("scenario", help="path to a scenario JSON file")
    emulate.add_argument(
        "--load", type=float, default=0.95,
        help="offered load as a fraction of the stable rate",
    )
    emulate.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds (default: enough for ~500 units)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="diagnose a scenario: bottlenecks, sensitivity, fragility, latency",
    )
    analyze.add_argument("scenario", help="path to a scenario JSON file")
    analyze.add_argument(
        "--algorithm", choices=CLI_ALGORITHMS, default="sparcle",
        help="task-assignment algorithm to analyze",
    )
    analyze.add_argument(
        "--paths", type=int, default=2,
        help="how many task assignment paths to find for fragility analysis",
    )

    trace = sub.add_parser(
        "trace",
        help="run one experiment with tracing on and export the artifacts",
    )
    trace.add_argument(
        "experiment", type=_experiment_id(), metavar="ID",
        help="which experiment to run under the tracer",
    )
    trace.add_argument(
        "--trials", type=int, default=None,
        help="number of random trials for sweep experiments",
    )
    _add_run_options(
        trace, out_dir="observability",
        out_help="directory for <id>_trace.jsonl / <id>_perf.prom / "
                 "<id>_report.json (default: ./observability)",
    )
    trace.add_argument(
        "--capacity", type=int, default=None,
        help="trace ring-buffer capacity (default: 65536 records)",
    )

    perf = sub.add_parser(
        "perf",
        help="run assignment on a scenario and print its perf counters",
    )
    perf.add_argument("scenario", help="path to a scenario JSON file")
    perf.add_argument(
        "--algorithm", choices=CLI_ALGORITHMS, default="sparcle",
        help="task-assignment algorithm to run",
    )
    perf.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="snapshot format: Prometheus text or merged JSON report",
    )
    _add_run_options(
        perf, seed=False,
        out_help="write the snapshot to DIR/<scenario>_perf.<ext> "
                 "(a path ending in .json/.prom is written verbatim); "
                 "default: stdout",
    )

    gateway = sub.add_parser(
        "gateway",
        help="push a synthesized admission burst through the gateway",
    )
    gateway.add_argument("scenario", help="path to a scenario JSON file")
    gateway.add_argument(
        "--requests", type=int, default=40,
        help="how many burst requests to synthesize (default: 40)",
    )
    gateway.add_argument(
        "--gr-fraction", type=float, default=0.6,
        help="fraction of burst requests that are GR (default: 0.6)",
    )
    _add_run_options(
        gateway,
        out_help="write a gateway_report.json with the run's numbers",
    )

    shards = sub.add_parser(
        "shards",
        help="push a synthesized admission burst through a federated "
        "(sharded) control plane with durable per-shard event logs",
    )
    shards.add_argument("scenario", help="path to a scenario JSON file")
    shards.add_argument(
        "--shards", dest="n_shards", type=int, default=2,
        help="number of regions the network is partitioned into "
        "(min-bottleneck-cut heuristic; default: 2)",
    )
    shards.add_argument(
        "--requests", type=int, default=40,
        help="how many burst requests to synthesize (default: 40)",
    )
    shards.add_argument(
        "--gr-fraction", type=float, default=0.6,
        help="fraction of burst requests that are GR (default: 0.6)",
    )
    shards.add_argument(
        "--kill-recover", type=int, metavar="SHARD", default=None,
        help="after the burst, crash SHARD and recover it from its "
        "event log, verifying its residual, its live apps and the "
        "cross-shard apps round-trip bit-for-bit",
    )
    _add_run_options(
        shards, log_dir=True,
        out_help="write a shards_report.json with the run's numbers",
    )

    serve = sub.add_parser(
        "serve",
        help="run the asyncio serving front-end: a JSON-lines admission "
        "endpoint over the sharded control plane (plus /metrics over HTTP)",
    )
    serve.add_argument("scenario", help="path to a scenario JSON file")
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=7433,
        help="TCP port to listen on (default: 7433; 0 = ephemeral)",
    )
    serve.add_argument(
        "--shards", dest="n_shards", type=int, default=2,
        help="number of regions the network is partitioned into "
        "(default: 2; 1 = unsharded)",
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="warm-start the shards from the --log-dir event logs before "
        "accepting traffic (crash recovery)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8,
        help="per-connection undecided-submit window before shedding "
        "(default: 8)",
    )
    serve.add_argument(
        "--burst", type=int, metavar="N", default=None,
        help="self-test mode: drive N synthesized requests through a "
        "local client, print the outcome, drain, and exit",
    )
    serve.add_argument(
        "--gr-fraction", type=float, default=0.6,
        help="fraction of --burst requests that are GR (default: 0.6)",
    )
    _add_run_options(
        serve, log_dir=True,
        out_help="write a serve_report.json (--burst mode only)",
    )

    soak = sub.add_parser(
        "soak",
        help="chaos-soak a fuzzed world: generate -> lint -> admit -> "
        "break -> repair, checking every invariant after every event",
    )
    soak.add_argument(
        "--events", type=int, default=500,
        help="chaos events to generate (default: 500)",
    )
    soak.add_argument(
        "--serve", action="store_true",
        help="soak the serving front-end instead: kill a live server "
        "mid-burst, recover from the event logs, verify nothing was "
        "double-admitted or lost (--events caps the burst size)",
    )
    soak.add_argument(
        "--quick", action="store_true",
        help="downsized fuzz profile for CI smoke runs",
    )
    soak.add_argument(
        "--shrink", action="store_true",
        help="on failure, minimize the trace to its shortest failing prefix",
    )
    soak.add_argument(
        "--sabotage", choices=("residual",), default=None,
        help="deliberately corrupt live state (mutation smoke test: the "
        "run MUST fail and exit nonzero)",
    )
    soak.add_argument(
        "--sabotage-after", type=int, default=0,
        help="event index after which the sabotage fires (default: 0)",
    )
    _add_run_options(
        soak,
        out_help="write soak_report.json and soak_events.jsonl artifacts "
        "(--serve: serve_soak_report.json and the event logs under "
        "serve_soak_logs/)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the SPARCLE static-analysis rules over sources/scenarios",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="JSON baseline of known violations to mute",
    )
    lint.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help="write the current findings as a baseline and exit 0",
    )
    lint.add_argument(
        "--rules", metavar="IDS", default=None,
        help="comma-separated rule/analysis ids to run (default: all)",
    )
    return parser


def _run_experiment(name: str, args: argparse.Namespace) -> None:
    run = _experiments()[name]
    kwargs: dict[str, object] = {}
    if args.trials is not None and name not in _NO_TRIALS:
        kwargs["trials"] = args.trials
    if args.emulate and name == "fig6":
        kwargs["emulate"] = True
    kwargs.update(_seed_kwargs(run, getattr(args, "seed", None)))
    result = run(**kwargs)
    print(result.to_text())
    if args.export:
        from repro.experiments.export import save_result

        paths = save_result(result, args.export)
        print(f"  wrote: {paths['csv']}, {paths['json']}")
    print()


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = (
        sorted(_experiments())
        if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        _run_experiment(name, args)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.core.analysis import placement_summary
    from repro.core.scenario import load_scenario
    from repro.utils.ascii_graph import render_placement, render_task_graph

    spec = load_scenario(args.scenario)
    algorithm = _resolve_algorithm(args.algorithm)
    result = algorithm(spec.graph, spec.network)
    print(f"scenario   : {spec.name}")
    print(f"algorithm  : {args.algorithm}")
    print(render_task_graph(spec.graph))
    print()
    print(placement_summary(spec.network, result.placement).to_text())
    print()
    print(render_placement(spec.network, result.placement))
    return 0


def _cmd_emulate(args: argparse.Namespace) -> int:
    from repro.emulator.emulator import Emulator

    outcome = Emulator.from_file(args.scenario).run(
        load_factor=args.load, duration=args.duration
    )
    print(f"scenario        : {outcome.scenario}")
    print(f"analytical rate : {outcome.analytical_rate:.4f} units/sec")
    print(f"offered rate    : {outcome.offered_rate:.4f} units/sec")
    print(f"achieved rate   : {outcome.achieved_rate:.4f} units/sec")
    print(f"stable          : {outcome.stable}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.analysis import bottleneck_sensitivity, placement_summary
    from repro.core.availability import single_points_of_failure
    from repro.core.latency import estimated_latency, zero_load_latency
    from repro.core.placement import CapacityView
    from repro.core.scenario import load_scenario

    spec = load_scenario(args.scenario)
    algorithm = _resolve_algorithm(args.algorithm)
    caps = CapacityView(spec.network)
    placements = []
    for _ in range(max(args.paths, 1)):
        try:
            result = algorithm(spec.graph, spec.network, caps)
        except Exception:  # noqa: BLE001 — residuals exhausted
            break
        if result.rate <= 1e-9:
            break
        placements.append((result.placement, result.rate))
        caps.consume(result.placement.loads(), result.rate)
    if not placements:
        print(f"scenario {spec.name!r} admits no positive-rate placement")
        return 1
    placement, rate = placements[0]
    print(f"scenario   : {spec.name}")
    print(f"algorithm  : {args.algorithm}")
    print(placement_summary(spec.network, placement).to_text())
    sensitivity = bottleneck_sensitivity(spec.network, placement)
    ranked = sorted(sensitivity.items(), key=lambda kv: -kv[1])[:3]
    print("\nupgrade sensitivity (rate per unit capacity):")
    for element, slope in ranked:
        print(f"  {element:8s} {slope:.6f}")
    floor = zero_load_latency(spec.network, placement)
    print(f"\nlatency floor: {floor.total_seconds:.4f}s via "
          f"{' -> '.join(floor.critical_path)}")
    if rate > 0:
        print(f"latency at 80% load: "
              f"{estimated_latency(spec.network, placement, rate * 0.8):.4f}s")
    spof = single_points_of_failure([p for p, _ in placements])
    print(f"\nfragility ({len(placements)} path(s)): single points of failure "
          f"= {sorted(spof) if spof else 'none'}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.base import export_observability, traced_run
    from repro.perf import PerfRegistry, use_registry

    name = args.experiment
    run = _experiments()[name]
    kwargs: dict[str, object] = {}
    if args.trials is not None and name not in _NO_TRIALS:
        kwargs["trials"] = args.trials
    kwargs.update(_seed_kwargs(run, args.seed))
    labeled = PerfRegistry()
    with use_registry(labeled):
        result, tracer = traced_run(run, capacity=args.capacity, **kwargs)
    print(result.to_text())
    print()
    print(f"trace      : {len(tracer)} records "
          f"({tracer.dropped} dropped, capacity {tracer.capacity})")
    for kind, count in sorted(tracer.kind_counts().items()):
        print(f"  {kind:32s} {count}")
    paths = export_observability(
        args.out_dir,
        experiment_id=name,
        tracer_obj=tracer,
        labeled=labeled,
        extra={"title": result.title},
    )
    print(f"  wrote: {paths['trace']}, {paths['prom']}, {paths['report']}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import json as _json

    from repro.core.scenario import load_scenario
    from repro.perf import exporters
    from repro.perf import PerfRegistry, use_registry

    spec = load_scenario(args.scenario)
    algorithm = _resolve_algorithm(args.algorithm)
    labeled = PerfRegistry()
    with use_registry(labeled):
        result = algorithm(spec.graph, spec.network)
    if args.format == "prom":
        text = exporters.prometheus_snapshot(labeled=labeled)
    else:
        report = exporters.run_report(labeled=labeled)
        report["scenario"] = spec.name
        report["algorithm"] = args.algorithm
        report["rate"] = result.rate
        text = _json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out_dir:
        from pathlib import Path

        target = Path(args.out_dir)
        if target.suffix not in (".json", ".prom"):
            target.mkdir(parents=True, exist_ok=True)
            ext = "json" if args.format == "json" else "prom"
            target = target / f"{spec.name}_perf.{ext}"
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
        print(f"scenario : {spec.name}")
        print(f"rate     : {result.rate:.4f} units/sec")
        print(f"wrote    : {target}")
    else:
        print(text, end="")
    return 0


def _synthesize_burst(
    spec: "ScenarioSpec", count: int, seed: int | None, gr_fraction: float
) -> "list[BERequest | GRRequest]":
    """The seeded GR/BE request burst the service subcommands drive."""
    from repro.core.assignment import sparcle_assign
    from repro.core.scheduler import BERequest, GRRequest
    from repro.utils.rng import ensure_rng

    generator = ensure_rng(seed if seed is not None else 97)
    reference = max(sparcle_assign(spec.graph, spec.network).rate, 1e-6)
    requests: list[BERequest | GRRequest] = []
    for index in range(max(count, 1)):
        graph = spec.graph.with_pins({}, name=f"app{index}")
        if generator.uniform(0.0, 1.0) < gr_fraction:
            fraction = float(generator.uniform(0.05, 0.3))
            requests.append(GRRequest(
                f"app{index}", graph,
                min_rate=fraction * reference, max_paths=2,
            ))
        else:
            priority = float(generator.choice([1.0, 2.0, 4.0]))
            requests.append(BERequest(
                f"app{index}", graph, priority=priority, max_paths=2,
            ))
    return requests


def _cmd_gateway(args: argparse.Namespace) -> int:
    import json as _json
    import time

    from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
    from repro.core.scenario import load_scenario
    from repro.service import AdmissionGateway

    spec = load_scenario(args.scenario)
    requests = _synthesize_burst(
        spec, args.requests, args.seed, args.gr_fraction
    )

    serial = SparcleScheduler(spec.network)
    start = time.perf_counter()
    serial_decisions = [
        serial.commit(serial.evaluate(request))
        for request in AdmissionGateway.priority_order(requests)
    ]
    serial_wall = time.perf_counter() - start

    scheduler = SparcleScheduler(spec.network)
    with AdmissionGateway(
        scheduler, max_queue_depth=len(requests)
    ) as gateway:
        start = time.perf_counter()
        decisions = gateway.process(requests)
        gateway_wall = time.perf_counter() - start

    stats = gateway.stats
    print(f"scenario         : {spec.name}")
    print(f"burst            : {len(requests)} requests "
          f"({sum(isinstance(r, GRRequest) for r in requests)} GR / "
          f"{sum(isinstance(r, BERequest) for r in requests)} BE)")
    print(f"serial           : {sum(d.accepted for d in serial_decisions)} "
          f"accepted in {serial_wall:.3f}s "
          f"({len(requests) / serial_wall:.1f} req/s)")
    print(f"gateway          : "
          f"{sum(d.accepted for d in decisions)} accepted in "
          f"{gateway_wall:.3f}s ({len(requests) / gateway_wall:.1f} req/s)")
    print(f"epochs           : {stats.epochs}")
    if args.out_dir:
        from pathlib import Path

        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = {
            "scenario": spec.name,
            "requests": len(requests),
            "serial": {
                "accepted": sum(d.accepted for d in serial_decisions),
                "wall_s": serial_wall,
            },
            "gateway": {
                "accepted": sum(d.accepted for d in decisions),
                "wall_s": gateway_wall,
                "epochs": stats.epochs,
            },
        }
        target = out_dir / "gateway_report.json"
        target.write_text(_json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote            : {target}")
    return 0


def _cmd_shards(args: argparse.Namespace) -> int:
    """Run a synthesized burst through a federated control plane."""
    import json as _json
    import time

    from repro.core.scenario import load_scenario
    from repro.service.shard import ShardCoordinator

    spec = load_scenario(args.scenario)
    requests = _synthesize_burst(
        spec, args.requests, args.seed, args.gr_fraction
    )

    with ShardCoordinator(
        spec.network,
        n_shards=args.n_shards,
        max_queue_depth=len(requests),
        log_dir=args.log_dir,
    ) as coordinator:
        partition = coordinator.partition
        sizes = [len(s.ncp_names) for s in partition.subnetworks]
        print(f"scenario         : {spec.name}")
        print(f"partition        : {partition.n_shards} shards "
              f"(sizes {sizes}, {len(partition.boundary_links)} "
              f"boundary links)")
        start = time.perf_counter()
        decisions = coordinator.process(requests)
        wall = time.perf_counter() - start
        stats = coordinator.stats
        accepted = sum(1 for d in decisions if d is not None and d.accepted)
        print(f"burst            : {len(requests)} requests "
              f"({stats.cross_submitted} routed cross-shard)")
        print(f"federated        : {accepted} accepted in {wall:.3f}s "
              f"({len(requests) / wall:.1f} req/s)")
        print(f"cross-shard      : {stats.cross_conflicts} conflicts, "
              f"{stats.cross_serial_fallbacks} serial fallbacks")
        warm_exact: bool | None = None
        if args.kill_recover is not None:
            shard_id = args.kill_recover
            node = coordinator.nodes[shard_id]

            def state() -> tuple[object, ...]:
                return (
                    node.residual_entries(),
                    sorted(node.live_apps()),
                    dict(coordinator.cross_apps()),
                )

            before = state()
            lost = coordinator.kill_shard(shard_id)
            coordinator.restart_shard(shard_id)
            warm_exact = state() == before
            print(f"kill/recover     : shard {shard_id} lost {lost} queued "
                  f"requests; warm start bit-for-bit (residual, "
                  f"{len(before[1])} live apps, {len(before[2])} cross-shard "
                  f"apps): {warm_exact}")
        if args.out_dir:
            from pathlib import Path

            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            report = {
                "scenario": spec.name,
                "requests": len(requests),
                "n_shards": partition.n_shards,
                "shard_sizes": sizes,
                "boundary_links": len(partition.boundary_links),
                "accepted": accepted,
                "wall_s": wall,
                "cross_submitted": stats.cross_submitted,
                "cross_conflicts": stats.cross_conflicts,
                "cross_serial_fallbacks": stats.cross_serial_fallbacks,
                "warm_start_exact": warm_exact,
            }
            target = out_dir / "shards_report.json"
            target.write_text(
                _json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
            print(f"wrote            : {target}")
    if warm_exact is False:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio serving front-end (or its --burst self-test)."""
    from repro.core.scenario import load_scenario
    from repro.service.server import serve

    spec = load_scenario(args.scenario)
    if args.burst is None:
        serve(
            spec.network,
            host=args.host,
            port=args.port,
            n_shards=args.n_shards,
            log_dir=args.log_dir,
            max_inflight=args.max_inflight,
            recover=args.recover,
        )
        return 0
    return _cmd_serve_burst(args, spec)


def _cmd_serve_burst(args: argparse.Namespace, spec: "ScenarioSpec") -> int:
    """The ``serve --burst N`` self-test: server + client in one process."""
    import asyncio
    import json as _json
    import time

    from repro.core.scheduler import BERequest, GRRequest
    from repro.service.client import SparcleClient, scrape_metrics
    from repro.service.server import SparcleServer

    requests = _synthesize_burst(spec, args.burst, args.seed, args.gr_fraction)

    async def _run() -> dict[str, object]:
        server = SparcleServer(
            spec.network,
            host=args.host,
            port=args.port,
            n_shards=args.n_shards,
            max_queue_depth=max(len(requests), 16),
            log_dir=args.log_dir,
            max_inflight=args.max_inflight,
            recover=args.recover,
        )
        await server.start()
        client = await SparcleClient.open(server.host, server.port)
        start = time.perf_counter()
        decisions = await client.process(
            requests, window=args.max_inflight
        )
        wall = time.perf_counter() - start
        status = await client.status()
        metrics = await scrape_metrics(server.host, server.port)
        await client.drain()
        await client.close()
        await server.wait_closed()
        # Every decision was written to its client and retired: a ticket
        # still held by any layer after the drain is a leak.
        held = server.coordinator.decisions_held
        accepted = sum(
            1 for d in decisions if d is not None and d.accepted
        )
        return {
            "accepted": accepted,
            "decided": sum(1 for d in decisions if d is not None),
            "wall_s": wall,
            "epochs": status.epoch,
            "shed": status.shed,
            "metrics_ok": "sparcle_server_accepted" in metrics,
            "decisions_held": held,
        }

    summary = asyncio.run(_run())
    print(f"scenario         : {spec.name}")
    print(f"burst            : {len(requests)} requests "
          f"({sum(isinstance(r, GRRequest) for r in requests)} GR / "
          f"{sum(isinstance(r, BERequest) for r in requests)} BE)")
    print(f"serve ({args.n_shards} shards) : {summary['accepted']} "
          f"accepted of {summary['decided']} decided in "
          f"{summary['wall_s']:.3f}s "
          f"({len(requests) / max(summary['wall_s'], 1e-9):.1f} req/s)")
    print(f"epochs           : {summary['epochs']} "
          f"({summary['shed']} shed)")
    print(f"metrics          : sparcle_server_* exported: "
          f"{summary['metrics_ok']}")
    print(f"after drain      : {summary['decisions_held']} decided "
          f"tickets still held (0 required)")
    if args.out_dir:
        from pathlib import Path

        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = {
            "scenario": spec.name,
            "requests": len(requests),
            "n_shards": args.n_shards,
            **summary,
        }
        target = out_dir / "serve_report.json"
        target.write_text(_json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote            : {target}")
    return 0 if summary["metrics_ok"] and not summary["decisions_held"] else 1


def _cmd_soak_serve(args: argparse.Namespace, seed: int) -> int:
    """The ``soak --serve`` mode: kill a live server mid-burst, recover."""
    import json
    from pathlib import Path

    from repro.chaos import run_serve_soak

    if args.sabotage or args.shrink:
        print("--serve does not support --sabotage/--shrink",
              file=sys.stderr)
        return 2
    n_requests = min(args.events, 24)
    print(f"serve soak: seed={seed} requests={n_requests}")
    out_dir = Path(args.out_dir) if args.out_dir is not None else None
    report = run_serve_soak(
        seed,
        n_requests,
        quick=args.quick,
        log_dir=out_dir / "serve_soak_logs" if out_dir is not None else None,
    )
    stats = report.stats
    print(
        f"  pre-kill: {stats['submitted_pre_kill']} submitted, "
        f"{stats['decided_pre_kill']} decided, "
        f"{stats['accepted_pre_kill']} accepted, "
        f"{stats['withdrawn_pre_kill']} withdrawn"
    )
    print(
        f"  recovered {stats['recovered']} app(s); post-recovery: "
        f"{stats['duplicates_post_recovery']} duplicate-rejected, "
        f"{stats['decided_post_recovery']} decided"
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "serve_soak_report.json"
        report_path.write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"  wrote {report_path}")
    if report.ok:
        print("  OK: zero invariant violations")
        return 0
    for violation in report.violations:
        print(
            f"  VIOLATION [{violation.invariant}]: {violation.detail}"
        )
    return 1


def _cmd_soak(args: argparse.Namespace) -> int:
    """Run the chaos soak harness; exit 0 iff every invariant held."""
    import json
    from pathlib import Path

    from repro.chaos import registered_invariants, run_soak

    seed = args.seed if args.seed is not None else 7
    if args.events < 1:
        print("--events must be >= 1", file=sys.stderr)
        return 2
    if args.serve:
        return _cmd_soak_serve(args, seed)
    print(
        f"soak: seed={seed} events={args.events} "
        f"invariants={', '.join(registered_invariants())}"
    )
    report = run_soak(
        seed,
        args.events,
        quick=args.quick,
        sabotage=args.sabotage,
        sabotage_after=args.sabotage_after,
        shrink=args.shrink,
    )
    world = report.world
    print(
        f"  world: {world['family']}/{world['shape']} "
        f"({world['n_ncps']} NCPs, {world['n_links']} links)"
    )
    stats = report.stats
    print(
        f"  ran {report.events_run}/{report.events_planned} events: "
        f"{stats['submitted']} submitted, {stats['accepted']} accepted, "
        f"{stats['rejected']} rejected, {stats['shed']} shed, "
        f"{stats['repair_events']} repair events"
    )
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "soak_report.json"
        report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        events_path = out_dir / "soak_events.jsonl"
        with events_path.open("w") as handle:
            for entry in report.event_log:
                handle.write(json.dumps(entry) + "\n")
        print(f"  wrote {report_path} and {events_path}")
    if report.ok:
        print("  OK: zero invariant violations")
        return 0
    for violation in report.violations:
        print(
            f"  VIOLATION [{violation.invariant}] after event "
            f"{violation.event_index}: {violation.detail}"
        )
    if report.shrunk_events is not None:
        print(
            f"  shrunk to the minimal failing prefix: "
            f"{report.shrunk_events} events"
        )
    return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools import (
        DEFAULT_ANALYSES,
        DEFAULT_RULES,
        LintConfigError,
        format_json,
        format_text,
        lint_paths,
        load_baseline,
        write_baseline,
    )

    rules = DEFAULT_RULES
    analyses = DEFAULT_ANALYSES
    if args.rules:
        wanted = {r.strip() for r in args.rules.split(",") if r.strip()}
        known = {rule.rule_id for rule in DEFAULT_RULES}
        known |= {analysis.rule_id for analysis in DEFAULT_ANALYSES}
        unknown = wanted - known
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        rules = tuple(r for r in DEFAULT_RULES if r.rule_id in wanted)
        analyses = tuple(
            a for a in DEFAULT_ANALYSES if a.rule_id in wanted
        )
    try:
        baseline = load_baseline(args.baseline) if args.baseline else frozenset()
        report = lint_paths(
            args.paths, rules=rules, analyses=analyses, baseline=baseline,
        )
    except LintConfigError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.write_baseline:
        count = write_baseline(args.write_baseline, report.violations)
        print(f"wrote {count} fingerprint(s) to {args.write_baseline}")
        return 0
    text = format_json(report) if args.format == "json" else format_text(report)
    print(text, end="")
    if report.errors:
        return 2
    return 0 if report.clean else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Back-compat: `sparcle fig6` == `sparcle experiment fig6`.  Subcommand
    # names win over same-named experiment ids (e.g. "gateway").
    subcommands = {
        "experiment", "schedule", "emulate", "analyze", "trace", "perf",
        "gateway", "shards", "serve", "lint", "soak",
    }
    if (
        argv
        and argv[0] not in subcommands
        and argv[0] in {*_experiments(), "all"}
    ):
        argv = ["experiment", *argv]
    args = build_parser().parse_args(argv)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "emulate":
        return _cmd_emulate(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "shards":
        return _cmd_shards(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "soak":
        return _cmd_soak(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
