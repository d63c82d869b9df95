"""Tests for the whole-program analyses (SPC008–SPC010).

Two layers: the seeded fixture tree (a miniature serving stack with one
deliberate bug per analysis, also exercised by CI's self-test step) must
make every analysis fire at the expected locations, and small synthetic
trees pin down each analysis's discrimination — the clean variant of
each seeded bug must NOT fire.
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

    def test_typestate_flags_conditional_commit(self, report):
        spc009 = [
            v for v in report.violations if v.rule_id == "SPC009"
        ]
        assert all(v.file.endswith("service/shard.py") for v in spc009)
        assert len(spc009) >= 2


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


class TestTypestateDiscrimination:
    def test_unconditional_commit_is_clean(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "service/shard.py": """
                class Coordinator:
                    def __init__(self):
                        self._log = []

                    def reserve_external(self, amount):
                        return amount

                    def reserve_and_commit(self, amount):
                        taken = self.reserve_external(amount)
                        self._log.append(taken)
                        return taken
                """
            },
        )
        fired = _rules_fired(lint_paths([tmp_path], root=tmp_path))
        assert "SPC009" not in fired

    def test_conditional_commit_leaks(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "service/shard.py": """
                class Coordinator:
                    def __init__(self):
                        self._log = []

                    def reserve_external(self, amount):
                        return amount

                    def reserve_maybe(self, amount, urgent):
                        taken = self.reserve_external(amount)
                        if urgent:
                            self._log.append(taken)
                        return taken
                """
            },
        )
        fired = _rules_fired(lint_paths([tmp_path], root=tmp_path))
        assert "SPC009" in fired

    def test_restore_on_error_path_is_clean(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "service/shard.py": """
                class Coordinator:
                    def __init__(self):
                        self._log = []

                    def reserve_external(self, amount):
                        return amount

                    def restore_residual(self, taken):
                        pass

                    def reserve_guarded(self, amount):
                        taken = self.reserve_external(amount)
                        try:
                            self._log.append(taken)
                        except ValueError:
                            self.restore_residual(taken)
                        return taken
                """
            },
        )
        fired = _rules_fired(lint_paths([tmp_path], root=tmp_path))
        assert "SPC009" not in fired


class TestWireSchemaDiscrimination:
    def test_consistent_protocol_is_clean(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "service/protocol.py": """
                from typing import ClassVar

                ERROR_CODES = ("protocol", "draining")


                class PingRequest:
                    TYPE: ClassVar[str] = "ping"


                class PongReply:
                    TYPE: ClassVar[str] = "pong"


                MESSAGE_TYPES = {
                    cls.TYPE: cls for cls in (PingRequest, PongReply)
                }
                REQUEST_TYPES = ("ping",)
                """,
                "service/client.py": """
                _ERROR_TYPES = {
                    "protocol": ValueError,
                    "draining": RuntimeError,
                }
                """,
            },
        )
        fired = _rules_fired(lint_paths([tmp_path], root=tmp_path))
        assert "SPC010" not in fired

    def test_unregistered_message_class_detected(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "service/protocol.py": """
                from typing import ClassVar

                ERROR_CODES = ("protocol",)


                class PingRequest:
                    TYPE: ClassVar[str] = "ping"


                class StrayReply:
                    TYPE: ClassVar[str] = "stray"


                MESSAGE_TYPES = {cls.TYPE: cls for cls in (PingRequest,)}
                REQUEST_TYPES = ("ping",)
                """,
                "service/client.py": """
                _ERROR_TYPES = {"protocol": ValueError}
                """,
            },
        )
        fired = _rules_fired(lint_paths([tmp_path], root=tmp_path))
        assert "SPC010" in fired

    def test_error_map_drift_detected(self, tmp_path):
        _write_tree(
            tmp_path,
            {
                "service/protocol.py": """
                from typing import ClassVar

                ERROR_CODES = ("protocol", "backpressure")


                class PingRequest:
                    TYPE: ClassVar[str] = "ping"


                MESSAGE_TYPES = {cls.TYPE: cls for cls in (PingRequest,)}
                REQUEST_TYPES = ("ping",)
                """,
                "service/client.py": """
                _ERROR_TYPES = {"protocol": ValueError}
                """,
            },
        )
        fired = _rules_fired(lint_paths([tmp_path], root=tmp_path))
        assert "SPC010" in fired
