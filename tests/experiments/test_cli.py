"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def scenario_file(tmp_path):
    from repro.core.network import star_network
    from repro.core.taskgraph import linear_task_graph
    from repro.emulator.scenario import save_scenario, scenario_to_dict

    graph = linear_task_graph(2, cpu_per_ct=100.0, megabits_per_tt=2.0)
    graph = graph.with_pins({"source": "ncp1", "sink": "ncp2"})
    network = star_network(3, hub_cpu=1000.0, leaf_cpu=500.0, link_bandwidth=20.0)
    path = tmp_path / "scenario.json"
    save_scenario(path, scenario_to_dict("cli-demo", network, graph))
    return path


class TestParser:
    def test_experiment_subcommand(self):
        args = build_parser().parse_args(["experiment", "fig10"])
        assert args.command == "experiment"
        assert args.experiment == "fig10"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_trials_flag(self):
        args = build_parser().parse_args(["experiment", "fig11", "--trials", "5"])
        assert args.trials == 5

    def test_schedule_subcommand(self):
        args = build_parser().parse_args(
            ["schedule", "x.json", "--algorithm", "heft"]
        )
        assert args.command == "schedule"
        assert args.algorithm == "heft"

    def test_emulate_subcommand(self):
        args = build_parser().parse_args(["emulate", "x.json", "--load", "0.8"])
        assert args.load == 0.8

    def test_trace_subcommand(self):
        args = build_parser().parse_args(
            ["trace", "repair", "--out-dir", "obs", "--capacity", "1000"]
        )
        assert args.command == "trace"
        assert args.experiment == "repair"
        assert args.out_dir == "obs"
        assert args.capacity == 1000

    @pytest.mark.parametrize("subcommand, removed", [
        ("trace", "output"),
        ("perf", "output"),
        ("gateway", "output"),
        ("gateway", "workers"),
        ("gateway", "executor"),
        ("shards", "workers"),
        ("shards", "kill-restart"),
        ("serve", "workers"),
        ("serve", "no-shards"),
    ])
    def test_removed_flags_rejected(self, subcommand, removed, capsys):
        positional = "repair" if subcommand == "trace" else "x.json"
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [subcommand, positional, f"--{removed}", "1"]
            )
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: --{removed}" in capsys.readouterr().err

    def test_perf_subcommand(self):
        args = build_parser().parse_args(
            ["perf", "x.json", "--format", "json"]
        )
        assert args.command == "perf"
        assert args.format == "json"

    def test_gateway_subcommand(self):
        args = build_parser().parse_args(
            ["gateway", "x.json", "--requests", "8",
             "--seed", "5", "--out-dir", "out"]
        )
        assert args.command == "gateway"
        assert args.requests == 8
        assert args.seed == 5
        assert args.out_dir == "out"

    def test_run_subcommands_share_seed_and_out_dir_spelling(self):
        # The unification contract: every run-producing subcommand accepts
        # the same --out-dir spelling.
        parser = build_parser()
        for argv in (
            ["trace", "repair", "--out-dir", "d"],
            ["perf", "x.json", "--out-dir", "d"],
            ["gateway", "x.json", "--out-dir", "d"],
        ):
            assert parser.parse_args(argv).out_dir == "d"
        for argv in (
            ["experiment", "fig10", "--seed", "3"],
            ["trace", "repair", "--seed", "3"],
            ["gateway", "x.json", "--seed", "3"],
        ):
            assert parser.parse_args(argv).seed == 3


class TestMain:
    def test_runs_fig10_and_prints_table(self, capsys):
        code = main(["experiment", "fig10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[fig10]" in out
        assert "10b-GR" in out

    def test_bare_experiment_id_back_compat(self, capsys):
        code = main(["fig10"])
        assert code == 0
        assert "[fig10]" in capsys.readouterr().out

    def test_trials_forwarded(self, capsys):
        code = main(["experiment", "fig11", "--trials", "3"])
        assert code == 0
        assert "[fig11]" in capsys.readouterr().out

    def test_export_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(["experiment", "fig10", "--export", str(out_dir)])
        assert code == 0
        assert (out_dir / "fig10.csv").exists()
        assert (out_dir / "fig10.json").exists()

    def test_schedule_scenario(self, capsys, scenario_file):
        code = main(["schedule", str(scenario_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "stable rate" in out
        assert "NCPs" in out and "links" in out  # the placement map
        assert "layer 0: source" in out  # the task-graph sketch

    def test_schedule_with_baseline(self, capsys, scenario_file):
        code = main(["schedule", str(scenario_file), "--algorithm", "gs"])
        assert code == 0
        assert "algorithm  : gs" in capsys.readouterr().out

    def test_emulate_scenario(self, capsys, scenario_file):
        code = main(["emulate", str(scenario_file), "--duration", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "achieved rate" in out
        assert "stable          : True" in out

    def test_analyze_scenario(self, capsys, scenario_file):
        code = main(["analyze", str(scenario_file), "--paths", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "upgrade sensitivity" in out
        assert "latency floor" in out
        assert "single points of failure" in out

    def test_analyze_with_baseline(self, capsys, scenario_file):
        code = main(["analyze", str(scenario_file), "--algorithm", "heft"])
        assert code == 0
        assert "algorithm  : heft" in capsys.readouterr().out


class TestObservabilityCommands:
    def test_trace_exports_artifacts(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "obs"
        code = main(["trace", "fig10", "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[fig10]" in out
        assert "trace      :" in out
        trace_path = out_dir / "fig10_trace.jsonl"
        assert trace_path.exists()
        kinds = {
            json.loads(line)["kind"]
            for line in trace_path.read_text().splitlines()
        }
        assert "assignment.path_selected" in kinds
        assert (out_dir / "fig10_perf.prom").exists()
        report = json.loads((out_dir / "fig10_report.json").read_text())
        assert report["experiment_id"] == "fig10"
        assert report["trace"]["records"] > 0

    def test_perf_prints_prometheus_snapshot(self, capsys, scenario_file):
        code = main(["perf", str(scenario_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE sparcle_" in out

    def test_perf_writes_json_report(self, capsys, scenario_file, tmp_path):
        import json

        target = tmp_path / "perf.json"
        code = main(
            [
                "perf", str(scenario_file),
                "--format", "json", "--out-dir", str(target),
            ]
        )
        assert code == 0
        report = json.loads(target.read_text())
        assert report["scenario"] == "cli-demo"
        assert report["algorithm"] == "sparcle"
        assert report["rate"] > 0

    def test_perf_out_dir_writes_named_snapshot(self, capsys, scenario_file,
                                                tmp_path):
        out_dir = tmp_path / "perfdir"
        code = main(["perf", str(scenario_file), "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "cli-demo_perf.prom").exists()

    def test_gateway_runs_burst_and_writes_report(self, capsys, scenario_file,
                                                  tmp_path):
        import json

        out_dir = tmp_path / "gw"
        code = main(
            [
                "gateway", str(scenario_file),
                "--requests", "6", "--seed", "11",
                "--out-dir", str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "gateway          :" in out
        report = json.loads((out_dir / "gateway_report.json").read_text())
        assert report["requests"] == 6
        assert report["gateway"]["accepted"] == report["serial"]["accepted"]
        assert report["serial"]["wall_s"] > 0
