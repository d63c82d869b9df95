"""Ledger property: a footprint-sized withdraw equals a full rebuild.

``CapacityView`` keeps each entry's held amount as an integer number of
``QUANTUM`` units, so a withdraw subtracts exactly what its commit added
and no state depends on the order tenants came and went: the GR
residual equals the live holds summed from scratch.  Over random
admit / withdraw / ``replan`` / ``reserve_external`` /
``apply_capacity_change`` / element down and up sequences (through a
:class:`~repro.core.repair.RepairController`, so replacement paths are
added too), after every step:

* every entry's ``held`` equals the sum, over the live holds, of
  ``round(rate × load / QUANTUM)`` — the active GR paths and the
  external reservations; a BE app holds nothing;
* every residual equals ``max(0, capacity − held × QUANTUM)`` bit for
  bit, the capacity being the raw one, the last capacity change, or zero
  while the element is down;
* a withdraw rewrites no entry off the elements it returns.

Withdrawing everything and bringing every element back up returns every
residual bit-exactly to its capacity, and ``freeze()`` keeps only the
capacity changes (nothing, when there were none).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import star_network
from repro.core.placement import QUANTUM
from repro.core.repair import RepairController
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import BANDWIDTH, CPU, linear_task_graph
from repro.exceptions import PlacementError

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

N_LEAVES = 4


def _request(draw, index: int):
    src = draw(st.integers(1, N_LEAVES))
    dst = draw(st.integers(1, N_LEAVES - 1))
    dst = dst if dst < src else dst + 1
    cpu = draw(st.floats(100.0, 800.0))
    graph = linear_task_graph(
        3, cpu_per_ct=[cpu, cpu * 1.5, cpu * 0.5],
        megabits_per_tt=[1.0, 1.0, 0.5, 0.5],
    ).with_pins(
        {"source": f"ncp{src}", "sink": f"ncp{dst}"}, name=f"app{index}"
    )
    if draw(st.booleans()):
        return GRRequest(
            f"app{index}", graph,
            min_rate=draw(st.floats(0.01, 0.5)), max_paths=2,
        )
    return BERequest(
        f"app{index}", graph,
        priority=draw(st.sampled_from([1.0, 2.0, 4.0])), max_paths=2,
    )


def _live_holds(scheduler):
    """What the GR residual holds, from the public API only."""
    holds = [
        (record.placement.loads(), record.rate)
        for app_id in scheduler.state().gr_apps
        for record in scheduler.paths(app_id, "GR")
        if record.active
    ]
    for tag in scheduler.external_tags():
        holds.extend(scheduler.external_consumptions(tag))
    return holds


def _summed(holds) -> dict[tuple[str, str], int]:
    total: dict[tuple[str, str], int] = {}
    for loads, rate in holds:
        for element, bucket in loads.items():
            for resource, load in bucket.items():
                if load > 0.0:
                    key = (element, resource)
                    total[key] = total.get(key, 0) + round(rate * load / QUANTUM)
    return total


def _assert_ledger(scheduler, capacity, keys, context) -> None:
    view = scheduler._gr_residual
    expected = _summed(_live_holds(scheduler))
    assert set(view._held) == {k for k, v in expected.items() if v}, context
    for key in keys:
        held = expected.get(key, 0)
        assert view.held(*key) == held, (context, key)
        cap = capacity(*key)
        assert view.capacity(*key) == max(0.0, cap - held * QUANTUM), (
            context, key
        )


class TestFootprintWithdrawEqualsFullRebuild:
    @SETTINGS
    @given(data=st.data())
    def test_random_lifecycle_sequences(self, data):
        draw = data.draw
        network = star_network(
            N_LEAVES,
            hub_cpu=draw(st.floats(5000.0, 40000.0)),
            leaf_cpu=draw(st.floats(2000.0, 20000.0)),
            link_bandwidth=draw(st.floats(10.0, 80.0)),
        )
        elements = sorted(network.element_names())
        links = sorted(link.name for link in network.links)
        resources = sorted(set(network.resources()) | {BANDWIDTH})
        keys = [(e, r) for e in elements for r in resources]
        changed: dict[tuple[str, str], float] = {}

        def capacity(element: str, resource: str) -> float:
            if element in scheduler.down_elements:
                return 0.0
            return changed.get(
                (element, resource), network.capacity(element, resource)
            )

        scheduler = SparcleScheduler(network)
        controller = RepairController(scheduler)
        for step in range(draw(st.integers(4, 14))):
            live = list(scheduler.app_ids())
            gr_apps = list(scheduler.state().gr_apps)
            op = draw(st.sampled_from(
                ["admit", "admit", "external", "down", "up", "capacity"]
                + (["withdraw"] * 3 if live else [])
                + (["replan"] if gr_apps else [])
            ))
            context = (step, op)
            if op == "admit":
                request = _request(draw, step)
                scheduler.commit(scheduler.evaluate(request))
            elif op == "external":
                loads = {
                    draw(st.sampled_from(links)): {
                        BANDWIDTH: draw(st.floats(0.5, 2.0))
                    },
                    f"ncp{draw(st.integers(1, N_LEAVES))}": {
                        CPU: draw(st.floats(50.0, 400.0))
                    },
                }
                before = scheduler.residual_snapshot()
                try:
                    scheduler.reserve_external(
                        f"ext{step}", [(loads, draw(st.floats(0.05, 1.0)))]
                    )
                except PlacementError:
                    # Did not fit: nothing changed.
                    assert scheduler.residual_snapshot() == before
                    assert f"ext{step}" not in scheduler.external_tags()
            elif op == "down":
                controller.element_down(draw(st.sampled_from(elements)))
            elif op == "up":
                down = sorted(scheduler.down_elements)
                if down:
                    controller.element_up(draw(st.sampled_from(down)))
            elif op == "capacity":
                leaf = f"ncp{draw(st.integers(1, N_LEAVES))}"
                value = draw(st.floats(500.0, 30000.0))
                scheduler.apply_capacity_change({leaf: {CPU: value}})
                changed[(leaf, CPU)] = value
            elif op == "replan":
                app_id = draw(st.sampled_from(gr_apps))
                if not scheduler.replan(app_id).readmitted:
                    controller.forget(app_id)
            else:
                app_id = draw(st.sampled_from(live))
                was = dict(scheduler._gr_residual._flat)
                footprint = scheduler.withdraw(app_id)
                controller.forget(app_id)
                now = scheduler._gr_residual._flat
                for key in set(was) | set(now):
                    if key[0] not in footprint:
                        assert now.get(key) == was.get(key), (context, key)
            _assert_ledger(scheduler, capacity, keys, context)
        for app_id in scheduler.app_ids():
            scheduler.withdraw(app_id)
        for element in sorted(scheduler.down_elements):
            scheduler.mark_element_up(element)
        _assert_ledger(scheduler, capacity, keys, "drained")
        edits = tuple(
            (element, resource, value)
            for (element, resource), value in sorted(changed.items())
            if value != network.capacity(element, resource)
        )
        assert scheduler.residual_snapshot().entries == edits
