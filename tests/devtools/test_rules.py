"""Rule-level tests: each SPC rule catches its seeded fixture violation,
honors ``# sparcle: ignore[...]``, and respects its allowlist/scope."""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.engine import LintEngine
from repro.devtools.rules import (
    DEFAULT_RULES,
    BroadExceptRule,
    FloatEqualityRule,
    ResourceLiteralRule,
)


def lint_snippet(tmp_path, relpath: str, snippet: str, rule) -> list:
    """Write ``snippet`` at ``relpath`` under a tmp root and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(snippet))
    engine = LintEngine([rule], root=tmp_path)
    return engine.lint_paths([target]).violations


class TestRuleSet:
    def test_default_rules_cover_spc001_to_spc006(self):
        assert [r.rule_id for r in DEFAULT_RULES] == [
            "SPC001", "SPC004", "SPC006",
        ]  # SPC002, SPC003 and SPC005 are retired and their IDs not reused

    def test_every_rule_has_a_summary(self):
        assert all(r.summary for r in DEFAULT_RULES)


class TestSPC001ResourceLiterals:
    RULE = ResourceLiteralRule()

    def test_flags_raw_literal(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def lookup(caps):
                return caps.get("bandwidth", 0.0)
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC001"]
        assert "BANDWIDTH" in found[0].message

    def test_suppression(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def lookup(caps):
                return caps.get("cpu", 0.0)  # sparcle: ignore[SPC001]
        ''', self.RULE)
        assert found == []

    def test_docstrings_and_other_strings_untouched(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            """Module about cpu and bandwidth budgeting."""
            LABEL = "cpu budget"
        ''', self.RULE)
        assert found == []

    @pytest.mark.parametrize("relpath", [
        "repro/core/taskgraph.py",
        "repro/core/scenario.py",
        "repro/emulator/scenario.py",
    ])
    def test_allowlisted_files_exempt(self, tmp_path, relpath):
        found = lint_snippet(tmp_path, relpath, 'KEY = "bandwidth"\n', self.RULE)
        assert found == []

    def test_routing_is_not_exempt(self, tmp_path):
        # The hop router reads Link.bandwidth, not a networkx edge attribute.
        found = lint_snippet(
            tmp_path, "repro/core/routing.py", 'KEY = "bandwidth"\n', self.RULE
        )
        assert [v.rule_id for v in found] == ["SPC001"]


class TestSPC004FloatEquality:
    RULE = FloatEqualityRule()

    def test_flags_rate_equality_with_float_literal(self, tmp_path):
        found = lint_snippet(tmp_path, "repro/core/mymod.py", '''
            def check(min_rate):
                return min_rate == 0.0
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC004"]

    def test_flags_rate_vs_capacity_comparison(self, tmp_path):
        found = lint_snippet(tmp_path, "repro/simulator/mymod.py", '''
            def saturated(view, placement):
                return placement.bottleneck_rate(view) != view.capacity("l1")
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC004"]

    def test_inequalities_and_unrelated_floats_fine(self, tmp_path):
        found = lint_snippet(tmp_path, "repro/core/mymod.py", '''
            def ok(rate, epsilon, kind):
                if rate <= 0.0:
                    return 0
                if epsilon == 0.5:
                    return 1
                return kind == "GR"
        ''', self.RULE)
        assert found == []

    def test_counting_comparisons_fine(self, tmp_path):
        found = lint_snippet(tmp_path, "repro/core/mymod.py", '''
            def empty(loads):
                return len(loads) == 0
        ''', self.RULE)
        assert found == []

    def test_out_of_scope_module_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path, "repro/experiments/mymod.py",
            "def f(rate):\n    return rate == 0.0\n", self.RULE,
        )
        assert found == []

    def test_suppression(self, tmp_path):
        found = lint_snippet(tmp_path, "repro/core/mymod.py", '''
            def check(rate):
                return rate == 0.0  # sparcle: ignore[SPC004]
        ''', self.RULE)
        assert found == []


class TestSPC006BroadExcept:
    RULE = BroadExceptRule()

    def test_flags_bare_except(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def load():
                try:
                    return 1
                except:
                    return None
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC006"]

    def test_flags_broad_exception_classes(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def load():
                try:
                    return 1
                except Exception:
                    return None

            def other():
                try:
                    return 2
                except BaseException:
                    return None
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC006", "SPC006"]

    def test_flags_broad_member_inside_tuple(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def load():
                try:
                    return 1
                except (ValueError, Exception):
                    return None
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC006"]

    def test_narrow_handlers_are_fine(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def load():
                try:
                    return 1
                except (ValueError, OSError):
                    return None
                except ImportError:
                    return None
        ''', self.RULE)
        assert found == []

    def test_suppression(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def load():
                try:
                    return 1
                except Exception:  # sparcle: ignore[SPC006]
                    return None
        ''', self.RULE)
        assert found == []

    @pytest.mark.parametrize("relpath", [
        "repro/cli.py",
        "repro/runtime/engine.py",
    ])
    def test_allowlisted_files_exempt(self, tmp_path, relpath):
        found = lint_snippet(tmp_path, relpath, '''
            def top_level(run):
                try:
                    run()
                except Exception:
                    pass
        ''', self.RULE)
        assert found == []
