"""Serving-front-end chaos soak: kill mid-burst, recover, verify.

The ISSUE's acceptance bar for ``sparcle serve``: a server killed
mid-burst and restarted with ``recover=True`` must replay the durable
event logs into exactly the pre-kill admission state — zero
double-admissions, each recovered log compacted to a checkpoint that
replays to what its pre-kill records did, and no request silently lost.  :func:`run_serve_soak`
runs that scenario end-to-end over real sockets; this suite runs it for
several seeds and checks the report shape the CLI and CI consume.
"""

from __future__ import annotations

import pytest

from repro.chaos import ServeSoakReport, run_serve_soak


class TestServeSoak:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_kill_recover_soak_holds_all_invariants(self, seed):
        report = run_serve_soak(seed, 12, quick=True)
        assert report.ok, [v.to_dict() for v in report.violations]
        stats = report.stats
        # The kill landed mid-burst with real work on both sides.
        assert stats["submitted_pre_kill"] >= 1
        assert stats["decided_post_recovery"] >= 1
        # A third of what was accepted pre-kill was withdrawn, so the
        # recovery redid release records.
        assert stats["withdrawn_pre_kill"] >= 1
        # Everything else admitted pre-kill was recovered from the logs
        # and duplicate-rejected on resubmit.
        kept = stats["accepted_pre_kill"] - stats["withdrawn_pre_kill"]
        assert stats["recovered"] >= kept
        assert stats["duplicates_post_recovery"] >= kept

    def test_quick_caps_the_burst(self):
        report = run_serve_soak(11, 24, quick=True)
        assert report.n_requests <= 10
        assert report.ok, [v.to_dict() for v in report.violations]

    def test_report_is_json_shaped(self):
        import json

        report = run_serve_soak(3, 8, quick=True)
        assert isinstance(report, ServeSoakReport)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["seed"] == 3
        assert doc["ok"] is True
        assert set(doc) == {
            "seed", "n_requests", "ok", "violations", "stats",
        }
