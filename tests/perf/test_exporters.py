"""Unit tests for the Prometheus/JSONL/report exporters."""

from __future__ import annotations

import json

import pytest

from repro.perf.counters import PerfRegistry, counters
from repro.perf.exporters import (
    export_run,
    prometheus_snapshot,
    run_report,
)
from repro.perf.tracing import Tracer


@pytest.fixture(autouse=True)
def clean_counters():
    counters.reset()
    yield
    counters.reset()


def populated() -> tuple[PerfRegistry, Tracer]:
    """Flat series in the process-wide registry, labeled ones in a private one."""
    counters.incr("assignment.commits", 3)
    counters.accumulate("repair.rate_restored", 1.5)
    counters.observe("assignment.solve", 0.25)
    labeled = PerfRegistry()
    labeled.incr("scheduler.decisions", kind="GR", accepted="true")
    labeled.set_gauge("sim.queue_length", 4, element="hub")
    labeled.observe("repair.time_to_repair", 2.0, app="face")
    tr = Tracer()
    tr.enable()
    tr.event("admission.decision", app_id="face", accepted=True)
    return labeled, tr


class TestPrometheusSnapshot:
    def test_counter_gauge_and_summary_lines(self):
        labeled, _ = populated()
        text = prometheus_snapshot(labeled)
        assert "# TYPE sparcle_assignment_commits counter" in text
        assert "sparcle_assignment_commits 3" in text
        assert "sparcle_repair_rate_restored 1.5" in text
        assert "sparcle_assignment_solve_count 1" in text
        assert "sparcle_assignment_solve_seconds_sum 0.25" in text

    def test_labels_render_prometheus_style(self):
        labeled, _ = populated()
        text = prometheus_snapshot(labeled)
        assert (
            'sparcle_scheduler_decisions{accepted="true",kind="GR"} 1' in text
        )
        assert 'sparcle_sim_queue_length{element="hub"} 4' in text
        assert (
            'sparcle_repair_time_to_repair_seconds_sum{app="face"} 2' in text
        )
        assert 'sparcle_repair_time_to_repair_count{app="face"} 1' in text

    def test_label_values_are_escaped(self):
        labeled = PerfRegistry()
        labeled.incr("m", note='say "hi"\\now')
        text = prometheus_snapshot(labeled)
        assert 'note="say \\"hi\\"\\\\now"' in text

    def test_integral_floats_print_without_decimal(self):
        counters.accumulate("g", 2.0)
        text = prometheus_snapshot(PerfRegistry())
        assert "sparcle_g 2\n" in text

    def test_empty_registries_render_empty(self):
        assert prometheus_snapshot(PerfRegistry()) == ""
        assert prometheus_snapshot() == ""


class TestRunReport:
    def test_merges_all_three_layers(self):
        labeled, tr = populated()
        report = run_report(tracer_obj=tr, labeled=labeled)
        assert "perf" not in report
        assert report["metrics"]["counters"]["assignment.commits"] == 3
        assert report["metrics"]["timers"]["assignment.solve"]["calls"] == 1
        assert (
            report["metrics"]["timers"]["repair.time_to_repair{app=face}"]["calls"]
            == 1
        )
        assert (
            report["metrics"]["counters"][
                "scheduler.decisions{accepted=true,kind=GR}"
            ]
            == 1
        )
        assert report["trace"]["records"] == 1
        assert report["trace"]["kinds"] == {"admission.decision": 1}
        assert report["trace"]["dropped"] == 0

    def test_extra_metadata_merged(self):
        report = run_report(
            tracer_obj=Tracer(),
            labeled=PerfRegistry(),
            extra={"experiment_id": "repair"},
        )
        assert report["experiment_id"] == "repair"


class TestExportRun:
    def test_writes_three_artifacts_with_prefix(self, tmp_path):
        labeled, tr = populated()
        paths = export_run(
            tmp_path / "obs",
            tracer_obj=tr,
            labeled=labeled,
            prefix="repair_",
        )
        assert paths["trace"].name == "repair_trace.jsonl"
        assert paths["prom"].name == "repair_perf.prom"
        assert paths["report"].name == "repair_report.json"
        lines = paths["trace"].read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "admission.decision"
        assert "sparcle_assignment_commits" in paths["prom"].read_text()
        report = json.loads(paths["report"].read_text())
        assert report["trace"]["records"] == 1


class TestDeterministicTimestamp:
    """Regression: ``generated_at_unix`` was raw ``time.time()``, so two
    exports of the same run never compared equal.  An injected clock (or
    ``SOURCE_DATE_EPOCH``) must pin it bit-for-bit."""

    def test_injected_clock_makes_reports_equal(self):
        labeled, tr = populated()
        clock = lambda: 1754000000.0  # noqa: E731
        first = run_report(tracer_obj=tr, labeled=labeled,
                           clock=clock)
        second = run_report(tracer_obj=tr, labeled=labeled,
                            clock=clock)
        assert first == second
        assert first["generated_at_unix"] == 1754000000.0

    def test_source_date_epoch_pins_the_stamp(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        labeled, tr = populated()
        report = run_report(tracer_obj=tr, labeled=labeled)
        assert report["generated_at_unix"] == 1700000000.0

    def test_injected_clock_beats_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        labeled, tr = populated()
        report = run_report(tracer_obj=tr, labeled=labeled,
                            clock=lambda: 42.0)
        assert report["generated_at_unix"] == 42.0

    def test_wall_clock_without_either(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        labeled, tr = populated()
        report = run_report(tracer_obj=tr, labeled=labeled)
        assert report["generated_at_unix"] > 1.6e9  # a real unix stamp

    def test_export_run_is_byte_identical_with_clock(self, tmp_path):
        labeled, tr = populated()
        first = export_run(tmp_path / "a", tracer_obj=tr, labeled=labeled, clock=lambda: 7.0)
        second = export_run(tmp_path / "b", tracer_obj=tr, labeled=labeled, clock=lambda: 7.0)
        assert (first["report"].read_bytes()
                == second["report"].read_bytes())


class TestExpositionLineSet:
    """The exposition line set of flat + labeled series of every kind.

    Pinned from the two-registry exporter (flat registry section, then a
    labeled registry section); one registry holding both prints the same
    lines.  Uses only ``repro.perf`` package names so it runs against
    either layout.
    """

    EXPECTED = {
        "# TYPE sparcle_flat_count counter",
        "sparcle_flat_count 3",
        "# TYPE sparcle_flat_load gauge",
        "sparcle_flat_load 1.5",
        "# TYPE sparcle_flat_span summary",
        "sparcle_flat_span_count 1",
        "sparcle_flat_span_seconds_sum",
        "sparcle_flat_span_seconds_max",
        "# TYPE sparcle_both_count counter",
        "sparcle_both_count 1",
        'sparcle_both_count{kind="GR"} 1',
        "# TYPE sparcle_lab_count counter",
        "sparcle_lab_count 1",
        'sparcle_lab_count{kind="BE"} 2',
        'sparcle_lab_count{kind="GR"} 1',
        "# TYPE sparcle_lab_depth gauge",
        'sparcle_lab_depth{shard="a"} 4',
        "# TYPE sparcle_lab_wait summary",
        'sparcle_lab_wait_count{app="x"} 1',
        'sparcle_lab_wait_seconds_sum{app="x"} 0.5',
        'sparcle_lab_wait_seconds_max{app="x"} 0.5',
    }

    @staticmethod
    def _record() -> set[str]:
        import repro.perf as perf

        perf.counters.incr("flat.count", 3)
        perf.counters.accumulate("flat.load", 1.5)
        with perf.timer("flat.span"):
            pass
        perf.counters.incr("both.count")
        metrics = perf.get_metrics()
        metrics.incr("both.count", kind="GR")
        metrics.incr("lab.count")
        metrics.incr("lab.count", kind="GR")
        metrics.incr("lab.count", 2, kind="BE")
        metrics.set_gauge("lab.depth", 4.0, shard="a")
        metrics.observe("lab.wait", 0.5, app="x")
        lines = set(perf.prometheus_snapshot().splitlines())
        # Wall-clock samples: keep the sample name, drop the value.
        return {
            line.rsplit(" ", 1)[0] if line.startswith("sparcle_flat_span_seconds")
            else line
            for line in lines
        }

    def test_process_wide_registry(self):
        import repro.perf as perf

        perf.get_metrics().reset()
        try:
            assert self._record() == self.EXPECTED
        finally:
            perf.get_metrics().reset()

    def test_context_registry(self):
        import repro.perf as perf

        with perf.use_registry(type(perf.get_metrics())()):
            assert self._record() == self.EXPECTED
