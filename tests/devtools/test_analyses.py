"""Tests for the whole-program analysis (SPC008).

Two layers: the seeded fixture tree (a miniature serving front-end with
one deliberate bug per SPC008 pattern, also exercised by CI's self-test
step) must make every analysis fire at the expected locations, and small
synthetic trees pin down its discrimination — the clean variant of each
seeded bug must NOT fire.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools import DEFAULT_ANALYSES, lint_paths

FIXTURES = Path(__file__).parent / "fixtures" / "seeded"
REPO = Path(__file__).resolve().parents[2]


def _write_tree(root: Path, files: dict[str, str]) -> None:
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source).strip() + "\n")


def _rules_fired(report) -> dict[str, list[int]]:
    fired: dict[str, list[int]] = {}
    for violation in report.violations:
        fired.setdefault(violation.rule_id, []).append(violation.line)
    return fired


class TestSeededFixtures:
    """The committed fixture tree trips every analysis at least once."""

    @pytest.fixture(scope="class")
    def report(self):
        return lint_paths([FIXTURES], root=REPO)

    def test_no_fixture_errors(self, report):
        assert report.errors == []

    @pytest.mark.parametrize(
        "rule_id", [a.rule_id for a in DEFAULT_ANALYSES]
    )
    def test_every_analysis_fires(self, report, rule_id):
        fired = _rules_fired(report)
        assert rule_id in fired, f"{rule_id} never fired on seeded fixtures"

    def test_every_async_safety_pattern_fires(self, report):
        # server.py seeds a sleep, an open() one call away, a
        # fire-and-forget ensure_future and an unawaited coroutine.
        assert sorted(_rules_fired(report)["SPC008"]) == [12, 16, 18, 19]


class TestAsyncSafetyDiscrimination:
    def test_awaited_async_call_is_clean(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "service/server.py": """
                import asyncio


                async def handle():
                    await asyncio.sleep(0.1)
                """
            },
        )
        fired = _rules_fired(lint_paths([tmp_path], root=tmp_path))
        assert "SPC008" not in fired

    def test_transitive_blocking_call_detected(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "service/server.py": """
                import time


                def warm_up():
                    time.sleep(1.0)


                async def handle():
                    warm_up()
                """
            },
        )
        fired = _rules_fired(lint_paths([tmp_path], root=tmp_path))
        assert "SPC008" in fired

    def test_out_of_scope_file_ignored(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "service/worker.py": """
                import time


                async def handle():
                    time.sleep(1.0)
                """
            },
        )
        fired = _rules_fired(lint_paths([tmp_path], root=tmp_path))
        assert "SPC008" not in fired
