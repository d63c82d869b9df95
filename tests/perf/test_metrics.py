"""Unit tests for labeled series and the per-context registry override."""

from __future__ import annotations

from repro.perf.counters import (
    PerfRegistry,
    counters,
    get_metrics,
    use_registry,
)


class TestLabeledSeries:
    def test_label_sets_do_not_collide(self):
        reg = PerfRegistry()
        reg.incr("decisions", kind="GR")
        reg.incr("decisions", kind="BE")
        reg.incr("decisions", kind="GR")
        assert reg.get("decisions", kind="GR") == 2
        assert reg.get("decisions", kind="BE") == 1
        assert reg.get("decisions") == 0  # the unlabeled series is distinct
        reg.incr("decisions")
        assert reg.snapshot()["counters"] == {
            "decisions": 1,
            "decisions{kind=BE}": 1,
            "decisions{kind=GR}": 2,
        }

    def test_label_order_is_canonical(self):
        reg = PerfRegistry()
        reg.incr("m", a="1", b="2")
        assert reg.get("m", b="2", a="1") == 1

    def test_series_lists_every_label_combination(self):
        reg = PerfRegistry()
        reg.incr("m", app="x")
        reg.incr("m", app="y", path="0")
        assert reg.raw_items()["counters"] == {
            ("m", (("app", "x"),)): 1,
            ("m", (("app", "y"), ("path", "0"))): 1,
        }

    def test_gauge_last_write_wins(self):
        reg = PerfRegistry()
        reg.set_gauge("rate", 1.0, app="a")
        reg.set_gauge("rate", 2.5, app="a")
        assert reg.gauge("rate", app="a") == 2.5

    def test_observe_accumulates_timer_stats(self):
        reg = PerfRegistry()
        reg.observe("t", 0.1, app="a")
        reg.observe("t", 0.3, app="a")
        stat = reg.timer_stats("t", app="a")
        assert stat.calls == 2
        assert stat.total_seconds == 0.4
        assert stat.max_seconds == 0.3

    def test_snapshot_renders_labels(self):
        reg = PerfRegistry()
        reg.incr("m", kind="GR")
        reg.set_gauge("g", 1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"m{kind=GR}": 1}
        assert snap["gauges"] == {"g": 1.5}

    def test_reset_clears_everything(self):
        reg = PerfRegistry()
        reg.incr("m", k="v")
        reg.set_gauge("g", 1.0)
        reg.observe("t", 0.1)
        reg.reset()
        raw = reg.raw_items()
        assert not raw["counters"] and not raw["gauges"] and not raw["timers"]


class TestContextScoping:
    def test_use_registry_overrides_and_restores(self):
        private = PerfRegistry()
        counters.reset()
        assert get_metrics() is counters
        with use_registry(private):
            assert get_metrics() is private
            get_metrics().incr("m")
        assert get_metrics() is counters
        assert private.get("m") == 1
        assert counters.get("m") == 0
