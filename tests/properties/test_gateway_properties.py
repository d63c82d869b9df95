"""Property tests for gateway/serial admission decision-equivalence.

Checked over random request mixes on random star networks:

* **Exact serialization** — with ``batch_size=1`` an epoch holds a single
  request: the gateway must reproduce the serial decision stream
  *exactly* (ids, accept/reject, and admitted rates), for every input.
* **Every batch size is serial admission in priority order** — an epoch
  evaluates and commits one request at a time against the live state, so
  for ``batch_size`` 1, 2, 5 and unbounded, on requests whose footprints
  deliberately overlap, the decisions (accept set, placements, path
  rates) and the final residual equal a :class:`SparcleScheduler` fed
  :meth:`AdmissionGateway.priority_order` of the burst; no request is
  deferred to a later epoch than its batch.
* **Unconditional invariants** — every submitted request gets exactly
  one decision, the drain terminates, and the scheduler's residual equals
  fresh capacity minus exactly the accepted GR reservations (no
  double-commit, no leak).
"""

from __future__ import annotations

import math

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
def admission_scenarios(draw, endpoints=None):
    """A star network plus a mixed GR/BE burst with varied endpoints.

    ``endpoints`` confines every source and sink to the first that-many
    leaves, so all footprints share the hub and a couple of leaf links.
    """
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
        src = f"ncp{draw(st.integers(1, endpoints or n_leaves))}"
        dst_choices = [
            f"ncp{i}"
            for i in range(1, (endpoints or n_leaves) + 1)
            if f"ncp{i}" != src
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


def _serial_decisions(network, requests, scheduler=None):
    scheduler = scheduler or SparcleScheduler(network)
    return [
        scheduler.commit(scheduler.evaluate(request))
        for request in AdmissionGateway.priority_order(requests)
    ]


def _submit_and_drain(gateway, requests):
    """(decisions in submission order, decisions in commit order)."""
    tickets = [gateway.submit(request) for request in requests]
    reports = gateway.drain()
    committed = [d for report in reports for _, d in report.decided]
    return [gateway.decision_for(t) for t in tickets], committed


def _full(decision):
    """Everything a decision fixes: verdict, placements, path rates."""
    return (
        decision.app_id,
        decision.accepted,
        [(dict(p.ct_hosts), dict(p.tt_routes)) for p in decision.placements],
        decision.path_rates,
    )


def _assert_no_double_commit(scheduler) -> None:
    """Residual == fresh capacity - exactly the active GR reservations."""
    view = CapacityView(scheduler.network)
    for app_id in scheduler.state().gr_apps:
        for record in scheduler.paths(app_id, "GR"):
            if record.active:
                view.consume(record.placement.loads(), record.rate)
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
        _, committed = _submit_and_drain(gateway, requests)
        assert [
            (d.app_id, d.accepted, round(d.total_rate, 9))
            for d in committed
        ] == [
            (d.app_id, d.accepted, round(d.total_rate, 9))
            for d in serial
        ]


class TestSerialEquivalence:
    @SETTINGS
    @given(admission_scenarios(endpoints=3))
    def test_every_batch_size_is_serial(self, scenario):
        network, requests = scenario
        serial_scheduler = SparcleScheduler(network)
        serial = _serial_decisions(network, requests, serial_scheduler)
        for batch_size in (1, 2, 5, None):
            scheduler = SparcleScheduler(network)
            gateway = AdmissionGateway(scheduler, batch_size=batch_size)
            decisions, committed = _submit_and_drain(gateway, requests)
            # Exactly one decision per request, in submission order, and
            # no request sat out an epoch it could have been popped in.
            assert [d.app_id for d in decisions] == [
                r.app_id for r in requests
            ]
            assert gateway.queue_depth == 0
            assert gateway.epoch == math.ceil(
                len(requests) / (batch_size or len(requests))
            )
            assert [_full(d) for d in committed] == [
                _full(d) for d in serial
            ]
            assert scheduler.residual_snapshot() == (
                serial_scheduler.residual_snapshot()
            )
            _assert_no_double_commit(scheduler)
