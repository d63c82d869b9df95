"""Tests for the multi-application (shared-servers) simulator."""

from __future__ import annotations

import pytest

from repro.core.assignment import sparcle_assign
from repro.core.network import star_network
from repro.core.placement import CapacityView
from repro.core.scheduler import BERequest, SparcleScheduler
from repro.core.taskgraph import linear_task_graph
from repro.exceptions import SimulationError
from repro.simulator import Flow, MultiFlowSimulator


def make_app(name: str, source: str, sink: str):
    g = linear_task_graph(2, name=name, cpu_per_ct=1000.0, megabits_per_tt=2.0)
    return g.with_pins({"source": source, "sink": sink})


@pytest.fixture
def shared_setting():
    """Two apps whose placements contend for the same star."""
    net = star_network(4, hub_cpu=4000.0, leaf_cpu=2000.0, link_bandwidth=20.0)
    scheduler = SparcleScheduler(net)
    decisions = [
        scheduler.submit_be(BERequest("a", make_app("a", "ncp1", "ncp2"))),
        scheduler.submit_be(BERequest("b", make_app("b", "ncp1", "ncp2"),
                                      priority=2.0)),
    ]
    allocation = scheduler.allocate_be()
    placements = {d.app_id: d.placements[0] for d in decisions}
    return net, allocation, placements


class TestValidation:
    def test_empty_flows_rejected(self, shared_setting):
        net, _, _ = shared_setting
        with pytest.raises(SimulationError, match="at least one"):
            MultiFlowSimulator(net, [])

    def test_duplicate_ids_rejected(self, shared_setting):
        net, allocation, placements = shared_setting
        flow = Flow("x", placements["a"], 0.1)
        with pytest.raises(SimulationError, match="unique"):
            MultiFlowSimulator(net, [flow, Flow("x", placements["b"], 0.1)])

    def test_bad_rate_rejected(self, shared_setting):
        _, _, placements = shared_setting
        with pytest.raises(SimulationError, match="positive rate"):
            Flow("x", placements["a"], 0.0)


class TestAllocationIsJointlySustainable:
    def test_allocated_rates_run_stably_together(self, shared_setting):
        """The Problem-(4) solution survives shared-queue contention."""
        net, allocation, placements = shared_setting
        flows = [
            Flow(app_id, placements[app_id], rate * 0.95)
            for app_id, rate in allocation.app_rates.items()
        ]
        slowest = min(f.rate for f in flows)
        horizon = 200.0 / slowest
        sim = MultiFlowSimulator(net, flows)
        report = sim.run(horizon, warmup=horizon * 0.1)
        assert report.max_backlog < 25
        for flow in flows:
            observed = report.flows[flow.flow_id].throughput
            assert observed == pytest.approx(flow.rate, rel=0.08), flow.flow_id

    def test_overdriving_one_app_congests_the_shared_bottleneck(
        self, shared_setting
    ):
        net, allocation, placements = shared_setting
        flows = [
            Flow("a", placements["a"], allocation.app_rates["a"] * 2.5),
            Flow("b", placements["b"], allocation.app_rates["b"] * 0.95),
        ]
        horizon = 150.0 / min(f.rate for f in flows)
        sim = MultiFlowSimulator(net, flows)
        report = sim.run(horizon, warmup=horizon * 0.1)
        # The shared system is now oversubscribed: queues build somewhere.
        assert report.max_backlog > 20
        # Joint delivered rate cannot exceed what the shared capacity allows
        # (the allocation used it fully, so ~the allocated total).
        total_allocated = sum(allocation.app_rates.values())
        total_observed = sum(f.throughput for f in report.flows.values())
        assert total_observed <= total_allocated * 1.1

    def test_utilization_of_shared_bottleneck_near_one(self, shared_setting):
        net, allocation, placements = shared_setting
        flows = [
            Flow(app_id, placements[app_id], rate * 0.97)
            for app_id, rate in allocation.app_rates.items()
        ]
        horizon = 300.0 / min(f.rate for f in flows)
        report = MultiFlowSimulator(net, flows).run(
            horizon, warmup=horizon * 0.1
        )
        assert max(report.utilization.values()) > 0.85


class TestIndependentFlows:
    def test_disjoint_flows_do_not_interfere(self):
        net = star_network(6, hub_cpu=100000.0, leaf_cpu=2000.0,
                           link_bandwidth=50.0)
        g1 = make_app("a", "ncp1", "ncp2")
        g2 = make_app("b", "ncp3", "ncp4")
        caps = CapacityView(net)
        r1 = sparcle_assign(g1, net, caps)
        caps.consume(r1.placement.loads(), r1.rate)
        r2 = sparcle_assign(g2, net, caps)
        rate = min(r1.rate, r2.rate) * 0.5
        flows = [Flow("a", r1.placement, rate), Flow("b", r2.placement, rate)]
        horizon = 200.0 / rate
        report = MultiFlowSimulator(net, flows).run(horizon, warmup=horizon * 0.1)
        for flow_id in ("a", "b"):
            assert report.flows[flow_id].throughput == pytest.approx(
                rate, rel=0.07
            )
