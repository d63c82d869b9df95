"""Property tests for gateway/serial admission decision-equivalence.

Three layers of guarantee, checked over random request mixes on random
star networks:

* **Exact serialization** — with ``batch_size=1`` an epoch holds a single
  request, so optimistic evaluation degenerates to serial admission: the
  gateway must reproduce the serial decision stream *exactly* (ids,
  accept/reject, and admitted rates), for every input.
* **Conflict-free equivalence** — for full batches, whenever the run
  records zero conflicts and zero serial fallbacks, the accept/reject set
  must equal serial admission in the gateway's priority order (the
  ISSUE's decision-equivalence criterion).
* **Unconditional invariants** — conflicts or not: every submitted
  request gets exactly one decision, the drain terminates, and the
  scheduler's residual equals fresh capacity minus exactly the accepted
  GR reservations (no double-commit, no leak).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import star_network
from repro.core.placement import CapacityView
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import linear_task_graph
from repro.service import AdmissionGateway

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

TOLERANCE = 1e-6


@st.composite
def admission_scenarios(draw):
    """A star network plus a mixed GR/BE burst with varied endpoints."""
    n_leaves = draw(st.integers(min_value=4, max_value=7))
    network = star_network(
        n_leaves,
        hub_cpu=draw(st.floats(5000.0, 40000.0)),
        leaf_cpu=draw(st.floats(2000.0, 20000.0)),
        link_bandwidth=draw(st.floats(10.0, 80.0)),
    )
    n_requests = draw(st.integers(min_value=2, max_value=8))
    requests = []
    for index in range(n_requests):
        src = f"ncp{draw(st.integers(1, n_leaves))}"
        dst_choices = [
            f"ncp{i}" for i in range(1, n_leaves + 1) if f"ncp{i}" != src
        ]
        dst = draw(st.sampled_from(dst_choices))
        cpu = draw(st.floats(100.0, 800.0))
        graph = linear_task_graph(
            3, cpu_per_ct=[cpu, cpu * 1.5, cpu * 0.5],
            megabits_per_tt=[1.0, 1.0, 0.5, 0.5],
        ).with_pins({"source": src, "sink": dst}, name=f"app{index}")
        if draw(st.booleans()):
            requests.append(GRRequest(
                f"app{index}", graph,
                min_rate=draw(st.floats(0.01, 0.5)), max_paths=2,
            ))
        else:
            requests.append(BERequest(
                f"app{index}", graph,
                priority=draw(st.sampled_from([1.0, 2.0, 4.0])), max_paths=2,
            ))
    return network, requests


def _serial_decisions(network, requests):
    scheduler = SparcleScheduler(network)
    return [
        scheduler.commit(scheduler.evaluate(request))
        for request in AdmissionGateway.priority_order(requests)
    ]


def _assert_no_double_commit(scheduler) -> None:
    """Residual == fresh capacity - exactly the active GR reservations."""
    view = CapacityView(scheduler.network)
    for app_id in scheduler.state().gr_apps:
        for record in scheduler.paths(app_id, "GR"):
            if record.active:
                view.consume(record.placement.loads(), record.rate,
                             clamp=True)
    expected = view.snapshot()
    actual = scheduler.state().residual
    for element, bucket in expected.items():
        for resource, value in bucket.items():
            got = actual[element][resource]
            assert abs(got - value) <= TOLERANCE * max(1.0, abs(value)), (
                element, resource, got, value
            )


class TestSerializedGatewayIsExactlySerial:
    @SETTINGS
    @given(admission_scenarios())
    def test_batch_size_one_reproduces_serial_stream(self, scenario):
        network, requests = scenario
        serial = _serial_decisions(network, requests)
        scheduler = SparcleScheduler(network)
        gateway = AdmissionGateway(scheduler, batch_size=1)
        gateway.process(requests)
        assert gateway.stats.conflicts == 0
        assert [
            (d.app_id, d.accepted, round(d.total_rate, 9))
            for d in gateway.decisions
        ] == [
            (d.app_id, d.accepted, round(d.total_rate, 9))
            for d in serial
        ]


class TestConflictFreeEquivalence:
    @SETTINGS
    @given(admission_scenarios())
    def test_zero_conflict_runs_match_serial_accept_set(self, scenario):
        network, requests = scenario
        scheduler = SparcleScheduler(network)
        gateway = AdmissionGateway(scheduler)
        decisions = gateway.process(requests)
        # Unconditional: exactly one decision per request, in order.
        assert [d.app_id for d in decisions] == [r.app_id for r in requests]
        assert gateway.queue_depth == 0
        _assert_no_double_commit(scheduler)
        if gateway.stats.conflicts == 0 and gateway.stats.serial_fallbacks == 0:
            serial = _serial_decisions(network, requests)
            assert {
                (d.app_id, d.accepted) for d in decisions
            } == {
                (d.app_id, d.accepted) for d in serial
            }
