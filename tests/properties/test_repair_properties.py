"""Property tests for the online repair loop's three invariants.

Random request streams over random star networks are hit with random
element up/down sequences, driven through :class:`RepairController`, and
after *every* event three invariants are checked:

* **No migration** — surviving paths' CT→NCP and TT→route maps never
  change (only rates, activity, and *new* replacement paths do);
* **Capacity conservation** — the residual view always equals the fresh
  capacities minus exactly the active GR reservations, with no leak or
  double-free across arbitrarily many fail/repair cycles;
* **Rate bracketing** — every GR app's aggregate active rate stays within
  ``[surviving-paths-only, admission-time baseline]``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import star_network
from repro.core.placement import CapacityView
from repro.core.repair import RepairController, RetryPolicy
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import BANDWIDTH, linear_task_graph

#: The issue's acceptance bar: >= 40 seeded scenarios per invariant.
SETTINGS = settings(
    max_examples=45,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

TOLERANCE = 1e-6


@st.composite
def repair_scenarios(draw):
    """A star network, a request stream, and an element up/down sequence."""
    n_leaves = draw(st.integers(min_value=3, max_value=6))
    network = star_network(
        n_leaves,
        hub_cpu=draw(st.floats(2000.0, 10000.0)),
        leaf_cpu=draw(st.floats(1000.0, 5000.0)),
        link_bandwidth=draw(st.floats(5.0, 50.0)),
        link_failure_probability=draw(st.floats(0.0, 0.3)),
    )
    n_requests = draw(st.integers(min_value=1, max_value=4))
    requests = []
    for k in range(n_requests):
        n_cts = draw(st.integers(min_value=1, max_value=3))
        graph = linear_task_graph(
            n_cts,
            name=f"app{k}",
            cpu_per_ct=draw(st.floats(100.0, 3000.0)),
            megabits_per_tt=draw(st.floats(0.5, 10.0)),
        )
        source = f"ncp{draw(st.integers(1, n_leaves))}"
        sink = f"ncp{draw(st.integers(1, n_leaves))}"
        if source == sink:
            sink = f"ncp{(int(sink[3:]) % n_leaves) + 1}"
        graph = graph.with_pins({"source": source, "sink": sink})
        if draw(st.sampled_from(["GR", "BE"])) == "GR":
            requests.append(
                GRRequest(f"app{k}", graph,
                          min_rate=draw(st.floats(0.01, 2.0)), max_paths=2)
            )
        else:
            requests.append(
                BERequest(f"app{k}", graph,
                          priority=draw(st.floats(0.5, 4.0)), max_paths=2)
            )
    elements = network.element_names()
    n_events = draw(st.integers(min_value=1, max_value=8))
    toggles = [
        draw(st.sampled_from(elements)) for _ in range(n_events)
    ]
    return network, requests, toggles


def _admit_all(scheduler, requests):
    for request in requests:
        if isinstance(request, GRRequest):
            scheduler.submit_gr(request)
        else:
            scheduler.submit_be(request)


def _drive(scheduler, toggles):
    """Replay the toggle sequence; yields (outcome, event kind) per event."""
    controller = RepairController(
        scheduler, policy=RetryPolicy(max_attempts=2, backoff_base=1.0)
    )
    down: set[str] = set()
    for step, element in enumerate(toggles):
        now = float(step)
        if element in down:
            down.discard(element)
            yield controller.element_up(element, now), "up"
        else:
            down.add(element)
            yield controller.element_down(element, now), "down"


def _path_maps(scheduler):
    """app_id -> list of (ct_hosts, tt_routes) for every recorded path."""
    state = scheduler.state()
    maps = {}
    for app_id in state.gr_apps:
        maps[app_id] = [
            (dict(r.placement.ct_hosts), dict(r.placement.tt_routes))
            for r in scheduler.paths(app_id, "GR")
        ]
    for app_id in state.be_apps:
        maps[app_id] = [
            (dict(r.placement.ct_hosts), dict(r.placement.tt_routes))
            for r in scheduler.paths(app_id, "BE")
        ]
    return maps


def _scratch_residual(scheduler) -> dict:
    """The residual recomputed independently from first principles."""
    network = scheduler.network
    view = CapacityView(network)
    resources = set(network.resources()) | {BANDWIDTH}
    for element in scheduler.down_elements:
        for resource in resources:
            if view.capacity(element, resource) > 0:
                view.override(element, resource, 0.0)
    for app_id in scheduler.state().gr_apps:
        for record in scheduler.paths(app_id, "GR"):
            if record.active:
                view.consume(record.placement.loads(), record.rate)
    return view.snapshot()


class TestRepairInvariants:
    @SETTINGS
    @given(data=repair_scenarios())
    def test_no_migration(self, data):
        network, requests, toggles = data
        scheduler = SparcleScheduler(network)
        _admit_all(scheduler, requests)
        before = _path_maps(scheduler)
        for outcome, _ in _drive(scheduler, toggles):
            after = _path_maps(scheduler)
            for app_id, old_paths in before.items():
                # Existing paths may change activity/rate but never their
                # CT->NCP or TT->route maps; new paths only append.
                assert len(after[app_id]) >= len(old_paths), app_id
                for index, old in enumerate(old_paths):
                    assert after[app_id][index] == old, (app_id, index)
            before = after

    @SETTINGS
    @given(data=repair_scenarios())
    def test_capacity_conservation(self, data):
        network, requests, toggles = data
        scheduler = SparcleScheduler(network)
        _admit_all(scheduler, requests)
        for outcome, _ in _drive(scheduler, toggles):
            expected = _scratch_residual(scheduler)
            actual = scheduler.state().residual
            assert set(actual) == set(expected)
            for element, bucket in expected.items():
                for resource, value in bucket.items():
                    assert actual[element][resource] == value or abs(
                        actual[element][resource] - value
                    ) <= TOLERANCE * max(1.0, abs(value)), (element, resource)

    @SETTINGS
    @given(data=repair_scenarios())
    def test_rate_bracketing(self, data):
        network, requests, toggles = data
        scheduler = SparcleScheduler(network)
        _admit_all(scheduler, requests)
        baselines = {
            app_id: scheduler.gr_baseline_rate(app_id)
            for app_id in scheduler.state().gr_apps
        }
        for outcome, _ in _drive(scheduler, toggles):
            for app_id, after in outcome.gr_rates_after.items():
                surviving = outcome.gr_rates_surviving[app_id]
                assert after >= surviving - TOLERANCE, (app_id, outcome.kind)
                assert after <= baselines[app_id] + TOLERANCE, (
                    app_id, outcome.kind
                )
