"""Unit tests for the process-wide perf-counter registry."""

from __future__ import annotations

from repro.perf.counters import PerfRegistry, counters, timed, timer


class TestHitRate:
    def test_ratio_alias_is_gone(self):
        # ``ratio(numerator, denominator)`` never computed n/d — it always
        # computed n/(n+d).  It lived one deprecation cycle as a warning
        # alias of ``hit_rate``; both are removed for good.
        assert not hasattr(PerfRegistry(), "ratio")
        assert not hasattr(PerfRegistry(), "hit_rate")


class TestUnlabeledSeries:
    def test_snapshot_shape_of_flat_series(self):
        reg = PerfRegistry()
        reg.incr("b.hits", 2)
        reg.incr("a.hits")
        reg.accumulate("load", 0.5)
        reg.accumulate("load", 0.25)
        reg.observe("t", 0.5)
        reg.observe("t", 0.25)
        assert reg.snapshot() == {
            "counters": {"a.hits": 1, "b.hits": 2},
            "gauges": {"load": 0.75},
            "timers": {
                "t": {
                    "calls": 2,
                    "total_seconds": 0.75,
                    "mean_seconds": 0.375,
                    "max_seconds": 0.5,
                }
            },
        }
        assert list(reg.snapshot()["counters"]) == ["a.hits", "b.hits"]

    def test_integer_counts_stay_integers(self):
        reg = PerfRegistry()
        reg.incr("n", 3)
        assert reg.get("n") == 3 and isinstance(reg.get("n"), int)
        assert reg.get("absent") == 0
        assert reg.gauge("absent") == 0.0
        assert reg.timer_stats("absent").calls == 0

    def test_timed_and_timer_report_into_counters(self):
        counters.reset()

        @timed("test.decorated")
        def work() -> int:
            return 7

        assert work() == 7
        with timer("test.block"):
            pass
        assert counters.timer_stats("test.decorated").calls == 1
        assert counters.timer_stats("test.block").calls == 1
        counters.reset()
