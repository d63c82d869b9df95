"""Unit tests for the simulator time-series probes."""

from __future__ import annotations

import pytest

from repro.core.assignment import sparcle_assign
from repro.core.network import star_network
from repro.core.taskgraph import linear_task_graph
from repro.exceptions import SimulationError
from repro.perf.counters import PerfRegistry, use_registry
from repro.perf.tracing import Tracer, use_tracer
from repro.simulator import StreamSimulator, TimeSeriesProbe


@pytest.fixture
def pipeline():
    g = linear_task_graph(3, cpu_per_ct=1000.0, megabits_per_tt=2.0)
    g = g.with_pins({"source": "ncp1", "sink": "ncp2"})
    net = star_network(4, hub_cpu=4000.0, leaf_cpu=2000.0, link_bandwidth=20.0)
    return net, sparcle_assign(g, net)


class TestSampling:
    def test_invalid_interval_rejected(self, pipeline):
        net, result = pipeline
        sim = StreamSimulator(net, result.placement, result.rate * 0.5)
        with pytest.raises(SimulationError, match="positive"):
            TimeSeriesProbe(sim, 0.0)

    def test_double_attach_rejected(self, pipeline):
        net, result = pipeline
        sim = StreamSimulator(net, result.placement, result.rate * 0.5)
        probe = TimeSeriesProbe(sim, 1.0).attach()
        with pytest.raises(SimulationError, match="already attached"):
            probe.attach()

    def test_samples_cover_every_element_each_window(self, pipeline):
        net, result = pipeline
        rate = result.rate * 0.8
        sim = StreamSimulator(net, result.placement, rate)
        horizon = 50.0 / rate
        probe = TimeSeriesProbe(sim, horizon / 10.0).attach()
        sim.run(horizon)
        elements = set(sim.servers)
        windows = {s.time for s in probe.samples}
        assert len(windows) >= 9
        for when in windows:
            sampled = {s.element for s in probe.samples if s.time == when}
            assert sampled == elements

    def test_busy_fractions_are_clamped_and_positive_under_load(self, pipeline):
        net, result = pipeline
        rate = result.rate * 0.8
        sim = StreamSimulator(net, result.placement, rate)
        horizon = 100.0 / rate
        probe = TimeSeriesProbe(sim, horizon / 20.0).attach()
        sim.run(horizon)
        assert all(0.0 <= s.busy_fraction <= 1.0 for s in probe.samples)
        # A driven pipeline keeps at least one element measurably busy.
        assert max(s.busy_fraction for s in probe.samples) > 0.0

    def test_delivered_windows_sum_to_total_delivered(self, pipeline):
        net, result = pipeline
        rate = result.rate * 0.5
        sim = StreamSimulator(net, result.placement, rate)
        horizon = 40.0 / rate
        probe = TimeSeriesProbe(sim, horizon / 8.0).attach()
        report = sim.run(horizon)
        # Windows cover [0, horizon]; only units delivered after the final
        # sample (at most one window) can be missing.
        windowed = sum(count for _, count in probe.delivered_windows)
        assert windowed <= report.delivered_units
        assert report.delivered_units - windowed <= rate * probe.interval + 1
        rates = probe.delivered_rates()
        assert len(rates) == len(probe.delivered_windows)
        assert all(r >= 0.0 for _, r in rates)

    def test_peak_queue_matches_samples(self, pipeline):
        net, result = pipeline
        sim = StreamSimulator(net, result.placement, result.rate * 0.9)
        horizon = 50.0 / result.rate
        probe = TimeSeriesProbe(sim, horizon / 10.0).attach()
        sim.run(horizon)
        element = next(iter(sim.servers))
        expected = max(
            (s.queue_length for s in probe.samples if s.element == element),
            default=0,
        )
        assert probe.peak_queue(element) == expected
        assert probe.peak_queue("never-sampled") == 0

    def test_detach_stops_sampling(self, pipeline):
        net, result = pipeline
        rate = result.rate * 0.5
        sim = StreamSimulator(net, result.placement, rate)
        probe = TimeSeriesProbe(sim, 1.0).attach()
        probe.detach()
        sim.run(10.0)
        assert probe.samples == []


class TestObservabilityWiring:
    def test_probe_emits_trace_records_and_gauges(self, pipeline):
        net, result = pipeline
        rate = result.rate * 0.5
        sim = StreamSimulator(net, result.placement, rate)
        horizon = 30.0 / rate
        probe = TimeSeriesProbe(sim, horizon / 5.0).attach()
        tr = Tracer()
        tr.enable()
        registry = PerfRegistry()
        with use_tracer(tr), use_registry(registry):
            sim.run(horizon)
        records = tr.records("sim.probe")
        assert len(records) == len(probe.delivered_windows)
        first = records[0].fields
        assert set(first["queue_length"]) == set(sim.servers)
        assert set(first["busy_fraction"]) == set(sim.servers)
        assert first["delivered_rate"] >= 0.0
        element = next(iter(sim.servers))
        assert registry.gauge("sim.queue_length", element=element) >= 0.0

    def test_probe_is_silent_without_tracing(self, pipeline):
        net, result = pipeline
        rate = result.rate * 0.5
        sim = StreamSimulator(net, result.placement, rate)
        probe = TimeSeriesProbe(sim, 5.0).attach()
        tr = Tracer()  # disabled
        with use_tracer(tr):
            sim.run(20.0)
        assert len(tr) == 0
        assert probe.samples  # sampling itself is unconditional
