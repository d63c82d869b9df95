"""Guard: every CI job that runs pytest installs what the suite imports.

Many test modules import ``hypothesis`` at module level, so a job that
runs ``pytest`` without installing it cannot even collect the suite.
The workflow is read as plain text: jobs are the two-space-indented keys
under ``jobs:``, and a job runs pytest when any line outside its
``pip install`` lines invokes it.
"""

from __future__ import annotations

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"

_JOB = re.compile(r"^  ([A-Za-z0-9_-]+):\s*$")
_RUNS_PYTEST = re.compile(r"(-m pytest|^\s*(run:\s*)?pytest)\b")


def _jobs(text: str) -> dict[str, list[str]]:
    jobs: dict[str, list[str]] = {}
    inside = False
    current: list[str] | None = None
    for line in text.splitlines():
        if not line.startswith(" ") and line.strip():
            inside = line.rstrip() == "jobs:"
            current = None
            continue
        match = _JOB.match(line) if inside else None
        if match:
            current = jobs.setdefault(match.group(1), [])
        elif current is not None:
            current.append(line)
    return jobs


def _runs_pytest(lines: list[str]) -> bool:
    return any(
        _RUNS_PYTEST.search(line) for line in lines if "pip install" not in line
    )


def test_the_parser_finds_the_pytest_jobs():
    jobs = _jobs(WORKFLOW.read_text())
    assert {"tests", "coverage"} <= {
        name for name, lines in jobs.items() if _runs_pytest(lines)
    }


def test_every_pytest_job_installs_hypothesis():
    for name, lines in _jobs(WORKFLOW.read_text()).items():
        if _runs_pytest(lines):
            assert any(
                "pip install" in line and re.search(r"\bhypothesis\b", line)
                for line in lines
            ), f"CI job {name!r} runs pytest but does not install hypothesis"
