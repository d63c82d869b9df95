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
    FrozenSnapshotMutationRule,
    ResourceLiteralRule,
    UnlockedSharedMutationRule,
    UnseededRandomnessRule,
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
            "SPC001", "SPC002", "SPC003", "SPC004", "SPC005", "SPC006",
        ]

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
        "repro/core/routing.py",
        "repro/core/scenario.py",
        "repro/emulator/scenario.py",
    ])
    def test_allowlisted_files_exempt(self, tmp_path, relpath):
        found = lint_snippet(tmp_path, relpath, 'KEY = "bandwidth"\n', self.RULE)
        assert found == []


class TestSPC002Randomness:
    RULE = UnseededRandomnessRule()

    def test_flags_stdlib_random_import(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            import random

            def roll():
                return random.random()
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC002"]

    def test_flags_from_random_import(self, tmp_path):
        found = lint_snippet(
            tmp_path, "mymod.py", "from random import choice\n", self.RULE
        )
        assert [v.rule_id for v in found] == ["SPC002"]

    def test_flags_numpy_default_rng_call(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            import numpy as np

            def draw():
                return np.random.default_rng().uniform()
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC002"]
        assert "np.random.default_rng" in found[0].message

    def test_flags_numpy_random_import(self, tmp_path):
        found = lint_snippet(
            tmp_path, "mymod.py",
            "from numpy.random import default_rng\n", self.RULE,
        )
        assert [v.rule_id for v in found] == ["SPC002"]

    def test_generator_annotations_are_fine(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            import numpy as np
            from repro.utils.rng import ensure_rng

            def draw(rng: int | np.random.Generator | None = None) -> float:
                if isinstance(rng, np.random.Generator):
                    pass
                return float(ensure_rng(rng).uniform())
        ''', self.RULE)
        assert found == []

    def test_suppression(self, tmp_path):
        found = lint_snippet(
            tmp_path, "mymod.py",
            "import random  # sparcle: ignore[SPC002]\n", self.RULE,
        )
        assert found == []

    def test_rng_module_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path, "repro/utils/rng.py",
            "import numpy as np\nGEN = np.random.default_rng()\n", self.RULE,
        )
        assert found == []


class TestSPC003UnlockedMutation:
    RULE = UnlockedSharedMutationRule()

    UNGUARDED = '''
        class Registry:
            def incr(self, key, n=1):
                self._counts[key] = self._counts.get(key, 0) + n
    '''
    GUARDED = '''
        class Registry:
            def incr(self, key, n=1):
                with self._lock:
                    self._counts[key] = self._counts.get(key, 0) + n
    '''

    def test_flags_unguarded_rmw_in_perf(self, tmp_path):
        found = lint_snippet(
            tmp_path, "repro/perf/registry.py", self.UNGUARDED, self.RULE
        )
        assert [v.rule_id for v in found] == ["SPC003"]
        assert "_counts" in found[0].message

    def test_flags_unguarded_augassign(self, tmp_path):
        found = lint_snippet(tmp_path, "repro/perf/registry.py", '''
            class Registry:
                def bump(self, key):
                    self._seen[key] += 1
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC003"]

    def test_lock_guard_accepted(self, tmp_path):
        found = lint_snippet(
            tmp_path, "repro/perf/registry.py", self.GUARDED, self.RULE
        )
        assert found == []

    def test_guard_does_not_leak_into_nested_defs(self, tmp_path):
        found = lint_snippet(tmp_path, "repro/perf/registry.py", '''
            class Registry:
                def incr(self, key):
                    with self._lock:
                        def later():
                            self._counts[key] += 1
                        return later
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC003"]

    def test_init_and_local_dicts_exempt(self, tmp_path):
        found = lint_snippet(tmp_path, "repro/perf/registry.py", '''
            class Registry:
                def __init__(self):
                    self._counts = {}
                    self._counts["boot"] = self._counts.get("boot", 0) + 1

                def snapshot(self):
                    out = {}
                    out["total"] = out.get("total", 0) + 1
                    return out
        ''', self.RULE)
        assert found == []

    def test_out_of_scope_module_exempt(self, tmp_path):
        # The single-threaded gateway left the scope with its locks.
        for relpath in ("repro/core/scheduler.py", "repro/service/gateway.py"):
            found = lint_snippet(tmp_path, relpath, self.UNGUARDED, self.RULE)
            assert found == []

    def test_suppression(self, tmp_path):
        found = lint_snippet(tmp_path, "repro/perf/registry.py", '''
            class Registry:
                def incr(self, key):
                    self._counts[key] += 1  # sparcle: ignore[SPC003]
        ''', self.RULE)
        assert found == []


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


class TestSPC005FrozenMutation:
    RULE = FrozenSnapshotMutationRule()

    def test_flags_attribute_write_on_frozen_constructor_result(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            from repro.core.network import ResidualSnapshot

            def corrupt():
                snap = ResidualSnapshot("net")
                snap.entries = ()
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC005"]
        assert "snap" in found[0].message

    def test_flags_write_on_freeze_result(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def corrupt(view):
                frozen_view = view.freeze()
                frozen_view.network_name = "other"
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC005"]

    def test_flags_setattr_on_snapshot_named_value(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def corrupt(residual_snapshot):
                object.__setattr__(residual_snapshot, "entries", None)
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC005"]

    def test_flags_element_write_into_compiled_network_array(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            from repro.core.arrays import compile_network

            def corrupt(network):
                compiled = compile_network(network)
                compiled.tie_rank[0] = 99
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC005"]
        assert "compiled.tie_rank[...]" in found[0].message

    def test_flags_subscript_write_on_snapshot(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def corrupt(view):
                snapshot = view.freeze()
                snapshot[0] = None
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC005"]

    def test_flags_attribute_write_on_compiled_network(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            from repro.core.arrays import CompiledNetwork

            def corrupt(args):
                compiled_net = CompiledNetwork(*args)
                compiled_net.network_name = "other"
        ''', self.RULE)
        assert [v.rule_id for v in found] == ["SPC005"]

    def test_reads_from_compiled_arrays_fine(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            from repro.core.arrays import compile_network

            def ok(network, weights):
                compiled = compile_network(network)
                first = compiled.fwd_targets[0]
                weights[0] = 1.0
                return first
        ''', self.RULE)
        assert found == []

    def test_reading_and_rebinding_fine(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def ok(view):
                snapshot = view.freeze()
                entries = snapshot.entries
                snapshot = view.freeze()
                return entries, snapshot
        ''', self.RULE)
        assert found == []

    def test_dataclass_post_init_on_self_fine(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            class NCP:
                def __post_init__(self):
                    object.__setattr__(self, "capacities", {})
        ''', self.RULE)
        assert found == []

    def test_suppression(self, tmp_path):
        found = lint_snippet(tmp_path, "mymod.py", '''
            def corrupt(view):
                snap = view.freeze()
                snap.entries = ()  # sparcle: ignore[SPC005]
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
