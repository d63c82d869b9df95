"""Engine-level tests: discovery, suppressions, baselines, formatting."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.engine import (
    FileContext,
    LintConfigError,
    LintEngine,
    LintError,
    Rule,
    Violation,
    format_json,
    format_text,
    load_baseline,
    write_baseline,
)

FIXTURES = Path(__file__).parent / "fixtures"


class FlagEveryAssign(Rule):
    """Test rule: one violation per assignment statement."""

    rule_id = "TST001"
    summary = "flags every assignment"

    def check(self, ctx: FileContext):
        import ast

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                yield ctx.violation(node, self.rule_id, "assignment")


@pytest.fixture
def engine(tmp_path):
    return LintEngine([FlagEveryAssign()], root=tmp_path)


class TestViolation:
    def test_ordering_is_file_line_rule(self):
        a = Violation("a.py", 2, "SPC001", "x")
        b = Violation("a.py", 10, "SPC001", "x")
        c = Violation("b.py", 1, "SPC001", "x")
        assert sorted([c, b, a]) == [a, b, c]

    def test_fingerprint_excludes_line(self):
        a = Violation("a.py", 2, "SPC001", "x")
        b = Violation("a.py", 99, "SPC001", "x")
        assert a.fingerprint() == b.fingerprint()

    def test_to_dict_shape(self):
        v = Violation("a.py", 2, "SPC001", "msg")
        assert v.to_dict() == {
            "file": "a.py", "line": 2, "rule": "SPC001", "message": "msg",
        }


class TestDiscoveryAndParsing:
    def test_walks_directories_and_dedups(self, tmp_path, engine):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("y = 2\n")
        report = engine.lint_paths([tmp_path, tmp_path / "pkg" / "a.py"])
        assert report.files_checked == 1
        assert len(report.violations) == 1

    def test_missing_path_raises(self, tmp_path, engine):
        with pytest.raises(LintConfigError):
            engine.lint_paths([tmp_path / "nope"])

    def test_syntax_error_becomes_error_entry(self, tmp_path, engine):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = engine.lint_file(bad)
        assert report.violations == []
        assert len(report.errors) == 1
        assert report.errors[0].file == "bad.py"
        assert "does not parse" in report.errors[0].message
        assert not report.clean

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(LintConfigError):
            LintEngine([FlagEveryAssign(), FlagEveryAssign()])

    def test_relpath_is_posix_relative_to_root(self, tmp_path, engine):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.py").write_text("x = 1\n")
        report = engine.lint_paths([tmp_path / "sub"])
        assert report.violations[0].file == "sub/a.py"


class TestSuppressions:
    def test_targeted_ignore_mutes_matching_rule(self, tmp_path, engine):
        f = tmp_path / "a.py"
        f.write_text("x = 1  # sparcle: ignore[TST001]\ny = 2\n")
        report = engine.lint_file(f)
        assert [v.line for v in report.violations] == [2]
        assert report.suppressed == 1

    def test_targeted_ignore_leaves_other_rules(self, tmp_path, engine):
        f = tmp_path / "a.py"
        f.write_text("x = 1  # sparcle: ignore[SPC004]\n")
        report = engine.lint_file(f)
        assert len(report.violations) == 1
        assert report.suppressed == 0

    def test_bare_ignore_mutes_everything(self, tmp_path, engine):
        f = tmp_path / "a.py"
        f.write_text("x = 1  # sparcle: ignore\n")
        report = engine.lint_file(f)
        assert report.clean
        assert report.suppressed == 1

    def test_multi_rule_ignore_list(self, tmp_path, engine):
        f = tmp_path / "a.py"
        f.write_text("x = 1  # sparcle: ignore[SPC001, TST001]\n")
        report = engine.lint_file(f)
        assert report.clean


class TestBaseline:
    def test_baseline_mutes_known_fingerprints(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        noisy = LintEngine([FlagEveryAssign()], root=tmp_path)
        found = noisy.lint_file(f).violations
        baseline_path = tmp_path / "baseline.json"
        assert write_baseline(baseline_path, found) == 1
        muted = LintEngine(
            [FlagEveryAssign()], root=tmp_path,
            baseline=load_baseline(baseline_path),
        )
        report = muted.lint_file(f)
        assert report.clean
        assert report.baselined == 1

    def test_baseline_is_line_insensitive(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        engine = LintEngine([FlagEveryAssign()], root=tmp_path)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, engine.lint_file(f).violations)
        f.write_text("# shifted down\n\n\nx = 1\n")
        muted = LintEngine(
            [FlagEveryAssign()], root=tmp_path,
            baseline=load_baseline(baseline_path),
        )
        assert muted.lint_file(f).clean

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(LintConfigError):
            load_baseline(path)
        path.write_text("not json at all")
        with pytest.raises(LintConfigError):
            load_baseline(path)
        with pytest.raises(LintConfigError):
            load_baseline(tmp_path / "missing.json")


class TestFormatting:
    def test_text_format_lists_and_summarizes(self, tmp_path, engine):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        text = format_text(engine.lint_file(f))
        assert "a.py:1: TST001 assignment" in text
        assert "1 violation in 1 files" in text

    def test_json_format_round_trips(self, tmp_path, engine):
        f = tmp_path / "a.py"
        f.write_text("x = 1\ny = 2  # sparcle: ignore\n")
        doc = json.loads(format_json(engine.lint_file(f)))
        assert doc["files_checked"] == 1
        assert doc["suppressed"] == 1
        assert doc["clean"] is False
        assert doc["violations"][0]["rule"] == "TST001"

    def test_errors_appear_in_both_formats(self, tmp_path, engine):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = engine.lint_file(bad)
        text = format_text(report)
        assert "bad.py: error:" in text
        assert "1 file error" in text
        doc = json.loads(format_json(report))
        assert doc["errors"][0]["file"] == "bad.py"
        assert doc["clean"] is False


class TestRobustness:
    """Unanalyzable inputs become structured errors, never tracebacks."""

    def test_non_utf8_bytes_become_error_entry(self, tmp_path, engine):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b'name = "caf\xe9"\n')
        report = engine.lint_file(bad)
        assert report.violations == []
        assert len(report.errors) == 1
        assert "not valid UTF-8" in report.errors[0].message

    def test_empty_module_is_error_entry(self, tmp_path, engine):
        empty = tmp_path / "empty.py"
        empty.write_text("")
        report = engine.lint_file(empty)
        assert len(report.errors) == 1
        assert "empty" in report.errors[0].message

    def test_empty_init_is_fine(self, tmp_path, engine):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        report = engine.lint_paths([pkg])
        assert report.clean

    def test_adversarial_fixture_tree(self, tmp_path, engine):
        """The committed adversarial payloads lint to three error entries.

        The payloads are stored with non-``.py`` names (so the repo's own
        toolchain never trips on them) and copied into place here.
        """
        tree = tmp_path / "adversarial"
        tree.mkdir()
        src = FIXTURES / "adversarial"
        (tree / "syntax_error.py").write_bytes(
            (src / "syntax_error.py.txt").read_bytes()
        )
        (tree / "not_utf8.py").write_bytes(
            (src / "not_utf8.py.bin").read_bytes()
        )
        (tree / "empty.py").write_bytes((src / "empty.py.txt").read_bytes())
        report = engine.lint_paths([tree])
        assert report.violations == []
        assert len(report.errors) == 3
        assert {e.file.rpartition("/")[2] for e in report.errors} == {
            "syntax_error.py", "not_utf8.py", "empty.py",
        }

    def test_errors_sort_stably(self):
        a = LintError("a.py", "x")
        b = LintError("b.py", "x")
        assert sorted([b, a]) == [a, b]


class TestSuppressionSpans:
    """Directives anchor to the whole statement, not one physical line."""

    def test_directive_on_closing_line_suppresses_first_line_anchor(
        self, tmp_path, engine
    ):
        f = tmp_path / "a.py"
        f.write_text(
            "x = (\n"
            "    1\n"
            ")  # sparcle: ignore[TST001]\n"
        )
        report = engine.lint_file(f)
        assert report.clean
        assert report.suppressed == 1

    def test_directive_mid_statement_also_counts(self, tmp_path, engine):
        f = tmp_path / "a.py"
        f.write_text(
            "x = max(\n"
            "    1,  # sparcle: ignore[TST001]\n"
            "    2,\n"
            ")\n"
        )
        report = engine.lint_file(f)
        assert report.clean
        assert report.suppressed == 1

    def test_compound_header_directive_does_not_leak_into_body(
        self, tmp_path, engine
    ):
        f = tmp_path / "a.py"
        f.write_text(
            "if True:  # sparcle: ignore[TST001]\n"
            "    x = 1\n"
        )
        report = engine.lint_file(f)
        assert [v.line for v in report.violations] == [2]

    def test_exact_line_directive_still_works(self, tmp_path, engine):
        f = tmp_path / "a.py"
        f.write_text("x = 1  # sparcle: ignore[TST001]\n")
        assert engine.lint_file(f).clean
