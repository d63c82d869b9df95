"""The ``sparcle lint`` subcommand, end to end, plus the self-check that
the repo's own sources are clean with an **empty** baseline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: The repo's src/ tree (tests run from any cwd).
SRC = Path(__file__).resolve().parents[2] / "src"


class TestParser:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == ["src"]
        assert args.format == "text"
        assert args.baseline is None

    def test_lint_options(self):
        args = build_parser().parse_args(
            ["lint", "src", "tests", "--format", "json",
             "--baseline", "b.json", "--rules", "SPC001"]
        )
        assert args.paths == ["src", "tests"]
        assert args.format == "json"
        assert args.rules == "SPC001"

    def test_cache_and_changed_flags_are_rejected(self):
        # A full run takes under a second, so neither a git-diff scope
        # nor an on-disk facts cache earns an option.
        for argv in (["lint", "--changed"], ["lint", "--cache", "c.json"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestSelfCheck:
    def test_repo_sources_are_clean_with_empty_baseline(self, capsys):
        # The acceptance bar for this repo: `sparcle lint src/` exits 0
        # without any baseline entries — violations get fixed, not muted.
        assert main(["lint", str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_repo_scenario_free_lint_found_files(self, capsys):
        main(["lint", str(SRC), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True
        assert doc["files_checked"] > 50


class TestCliBehavior:
    @pytest.fixture
    def dirty_tree(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            'def f(caps):\n    try:\n        return caps.get("cpu")\n'
            '    except Exception:\n        return None\n'
        )
        return pkg

    def test_violations_exit_nonzero_text(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        assert "SPC001" in out and "SPC006" in out

    def test_json_format(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in doc["violations"]} == {"SPC001", "SPC006"}

    def test_rule_filter(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree), "--rules", "SPC006"]) == 1
        out = capsys.readouterr().out
        assert "SPC006" in out and "SPC001" not in out

    def test_unknown_rule_filter_is_config_error(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree), "--rules", "SPC777"]) == 2

    def test_missing_path_is_config_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "ghost")]) == 2

    def test_baseline_round_trip(self, dirty_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(dirty_tree),
                     "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", str(dirty_tree),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "2 baselined" in out

    def test_analysis_id_accepted_by_rule_filter(self, tmp_path, capsys):
        # The --rules flag selects analyses too, not just per-file rules.
        tree = tmp_path / "service"
        tree.mkdir()
        (tree / "server.py").write_text(
            "import time\n\n\nasync def handle():\n    time.sleep(1.0)\n"
        )
        assert main(["lint", str(tmp_path), "--rules", "SPC008"]) == 1
        out = capsys.readouterr().out
        assert "SPC008" in out

    def test_file_errors_exit_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert main(["lint", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "error:" in out

    def test_scenario_json_path_uses_semantic_validator(self, tmp_path, capsys):
        doc = {
            "name": "x",
            "network": {"ncps": [{"name": "a", "capacities": {"cpu": 1.0}}]},
            "application": {
                "cts": [{"name": "c", "requirements": {"gpu": 1.0}}],
            },
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["lint", str(path)]) == 1
        assert "SCN001" in capsys.readouterr().out
