"""Call-site tests: scheduler, assignment, and repair trace emission."""

from __future__ import annotations

import pytest

from repro.core.assignment import bottleneck_of, sparcle_assign
from repro.core.network import star_network
from repro.core.placement import CapacityView
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import linear_task_graph
from repro.perf.counters import PerfRegistry, use_registry
from repro.perf.tracing import Tracer, use_tracer


def small_app(name: str = "app"):
    g = linear_task_graph(3, name=name, cpu_per_ct=1000.0, megabits_per_tt=2.0)
    return g.with_pins({"source": "ncp1", "sink": "ncp2"})


@pytest.fixture
def net():
    return star_network(4, hub_cpu=4000.0, leaf_cpu=2000.0, link_bandwidth=20.0)


@pytest.fixture
def observed():
    tr = Tracer()
    tr.enable()
    registry = PerfRegistry()
    with use_tracer(tr), use_registry(registry):
        yield tr, registry


class TestAssignmentTrace:
    def test_path_selected_carries_bottleneck(self, net, observed):
        tr, _ = observed
        result = sparcle_assign(small_app(), net)
        (record,) = tr.records("assignment.path_selected")
        assert record.fields["rate"] == pytest.approx(result.rate)
        element, resource = bottleneck_of(
            result.placement, CapacityView(net)
        )
        assert record.fields["bottleneck_element"] == element
        assert record.fields["bottleneck_resource"] == resource
        assert record.fields["ct_hosts"] == dict(result.placement.ct_hosts)

    def test_nothing_recorded_when_disabled(self, net):
        tr = Tracer()  # disabled
        with use_tracer(tr):
            sparcle_assign(small_app(), net)
        assert len(tr) == 0


class TestAdmissionTrace:
    def test_gr_admission_emits_paths_checks_and_decision(self, net, observed):
        tr, registry = observed
        sched = SparcleScheduler(net)
        decision = sched.submit_gr(GRRequest("gr1", small_app(), min_rate=0.1))
        assert decision.accepted
        paths = tr.records("admission.path")
        assert len(paths) == len(decision.placements)
        assert paths[0].fields["app_id"] == "gr1"
        assert paths[0].fields["kind"] == "GR"
        assert paths[0].fields["bottleneck_elements"]
        checks = tr.records("admission.availability_check")
        assert checks[-1].fields["availability"] == pytest.approx(
            decision.availability
        )
        (final,) = tr.records("admission.decision")
        assert final.fields["accepted"] is True
        assert registry.get(
            "scheduler.decisions", kind="GR", accepted="true"
        ) == 1
        assert registry.gauge(
            "scheduler.admitted_rate", app="gr1", kind="GR"
        ) == pytest.approx(decision.total_rate)

    def test_rejection_also_traced(self, net, observed):
        tr, registry = observed
        sched = SparcleScheduler(net)
        decision = sched.submit_gr(
            GRRequest("gr1", small_app(), min_rate=1e9, max_paths=2)
        )
        assert not decision.accepted
        (final,) = tr.records("admission.decision")
        assert final.fields["accepted"] is False
        assert final.fields["reason"]
        assert registry.get(
            "scheduler.decisions", kind="GR", accepted="false"
        ) == 1

    def test_be_admission_traced_with_kind(self, net, observed):
        tr, _ = observed
        sched = SparcleScheduler(net)
        decision = sched.submit_be(BERequest("be1", small_app()))
        assert decision.accepted
        (final,) = tr.records("admission.decision")
        assert final.fields["kind"] == "BE"


class TestElementTransitionTrace:
    def test_mark_down_and_up_traced(self, net, observed):
        tr, registry = observed
        sched = SparcleScheduler(net)
        sched.submit_gr(GRRequest("gr1", small_app(), min_rate=0.1))
        tr.clear()
        sched.mark_element_down("hub")
        sched.mark_element_up("hub")
        (down,) = tr.records("scheduler.element_down")
        (up,) = tr.records("scheduler.element_up")
        assert down.fields["element"] == "hub"
        assert up.fields["element"] == "hub"
        assert registry.get(
            "scheduler.element_transitions", state="down"
        ) == 1
        assert registry.get("scheduler.element_transitions", state="up") == 1


class TestRepairTrace:
    def test_repair_log_mirrored_into_trace_and_metrics(self, observed):
        from repro.core.network import fully_connected_network
        from repro.core.repair import RepairController

        tr, registry = observed
        net = fully_connected_network(
            5, cpu=2000.0, link_bandwidth=20.0,
            link_failure_probability=0.02,
        )
        sched = SparcleScheduler(net)
        decision = sched.submit_gr(
            GRRequest("gr1", small_app(), min_rate=0.1)
        )
        assert decision.accepted
        controller = RepairController(sched)
        used = sorted(decision.placements[0].used_elements())
        element = used[0]
        controller.element_down(element, now=1.0)
        controller.element_up(element, now=2.0)
        kinds = set(tr.kind_counts())
        assert "repair.element_down" in kinds
        assert "repair.element_up" in kinds
        repair_events = [
            count for name, count in registry.snapshot()["counters"].items()
            if name.startswith("repair.events{")
        ]
        assert sum(repair_events) >= 2
        down = tr.records("repair.element_down")[0]
        assert down.ts == 1.0  # domain time, not the wall clock
