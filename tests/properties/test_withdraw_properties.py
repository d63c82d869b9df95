"""Differential property: footprint-sized withdraw vs. the full rebuilds.

``SparcleScheduler.withdraw`` re-derives the GR residual and, without
prediction, the FCFS ledger only on the elements the departing tenant
touched.  The two full rebuilds (``_rebuild_gr_residual`` /
``_rebuild_fcfs_view``) stay for the outage and capacity-change paths —
and as the oracle here: over random admit / withdraw / ``replan`` /
``reserve_external`` / ``apply_capacity_change`` / element down and up
(through a :class:`~repro.core.repair.RepairController`, so replacement
paths are added too) sequences, after every step the live views must
equal what the rebuilds produce on a twin scheduler sharing the same
tenant lists.  Under prediction no FCFS ledger exists at any step.  After
a withdraw

* every entry on the departed footprint is *bit-equal* to the rebuild
  (same starting value, same tenants, same order), including entries
  that disappear because no consumer remains;
* every entry off the footprint is *not rewritten* (bit-equal to its
  value before the withdraw).

Off the footprint the rebuild replays tenants class by class while the
live view consumed them in arrival order, so those entries agree to
rounding, not to the bit — the parent's withdraw re-rounded them, this
one leaves them alone.
"""

from __future__ import annotations

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import star_network
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
ROUNDING = 1e-9


def _entries(snapshot) -> dict[tuple[str, str], float]:
    return {(e, r): v for e, r, v in snapshot.entries}


def _views(scheduler):
    """The kept views: the GR residual, then the FCFS ledger if any."""
    views = [_entries(scheduler.residual_snapshot())]
    ledger = scheduler.fcfs_snapshot()
    if ledger is not None:
        views.append(_entries(ledger))
    return tuple(views)


def _rebuilt(scheduler):
    """The kept views as the full rebuilds derive them, on a twin."""
    twin = copy.copy(scheduler)  # shares the tenant lists, not the views
    twin._rebuild_gr_residual()
    twin._rebuild_fcfs_view()
    assert twin._gr_residual is not scheduler._gr_residual
    return _views(twin)


def _assert_matches_rebuild(scheduler, context) -> None:
    for live, oracle in zip(_views(scheduler), _rebuilt(scheduler)):
        assert live.keys() == oracle.keys(), context
        for key, value in oracle.items():
            assert abs(live[key] - value) <= ROUNDING * max(1.0, value), (
                context, key, live[key], value
            )


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


def _footprint(scheduler, app_id: str) -> set[str]:
    """Elements the tenant's views may hold entries on (empty: none)."""
    if app_id in scheduler.external_tags():
        held = scheduler.external_consumptions(app_id)
        return {element for loads, _ in held for element in loads}
    kind = "GR" if app_id in scheduler.state().gr_apps else "BE"
    return {
        element
        for record in scheduler.paths(app_id, kind)
        for element in record.placement.loads()
    }


class TestFootprintWithdrawEqualsFullRebuild:
    @SETTINGS
    @given(data=st.data(), use_prediction=st.booleans())
    def test_random_lifecycle_sequences(self, data, use_prediction):
        draw = data.draw
        network = star_network(
            N_LEAVES,
            hub_cpu=draw(st.floats(5000.0, 40000.0)),
            leaf_cpu=draw(st.floats(2000.0, 20000.0)),
            link_bandwidth=draw(st.floats(10.0, 80.0)),
        )
        elements = sorted(network.element_names())
        links = sorted(link.name for link in network.links)
        scheduler = SparcleScheduler(network, use_prediction=use_prediction)
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
                try:
                    scheduler.reserve_external(
                        f"ext{step}", [(loads, draw(st.floats(0.05, 1.0)))]
                    )
                except PlacementError:
                    pass  # did not fit: nothing changed
            elif op == "down":
                controller.element_down(draw(st.sampled_from(elements)))
            elif op == "up":
                down = sorted(scheduler.down_elements)
                if down:
                    controller.element_up(draw(st.sampled_from(down)))
            elif op == "capacity":
                leaf = f"ncp{draw(st.integers(1, N_LEAVES))}"
                scheduler.apply_capacity_change(
                    {leaf: {CPU: draw(st.floats(500.0, 30000.0))}}
                )
            elif op == "replan":
                app_id = draw(st.sampled_from(gr_apps))
                if not scheduler.replan(app_id).readmitted:
                    controller.forget(app_id)
            else:
                app_id = draw(st.sampled_from(live))
                footprint = _footprint(scheduler, app_id)
                is_be = app_id in scheduler.state().be_apps
                # A BE app never holds GR capacity; the FCFS ledger (kept
                # only without prediction) holds every tenant.
                rewritten = (not is_be, True)
                before = _views(scheduler)
                scheduler.withdraw(app_id)
                controller.forget(app_id)
                for was, now, oracle, touched in zip(
                    before, _views(scheduler), _rebuilt(scheduler), rewritten
                ):
                    if not touched:
                        assert now == was, context
                        continue
                    on = {k: v for k, v in now.items() if k[0] in footprint}
                    assert on == {
                        k: v for k, v in oracle.items() if k[0] in footprint
                    }, context
                    off = {
                        k: v for k, v in now.items() if k[0] not in footprint
                    }
                    assert off == {
                        k: v for k, v in was.items() if k[0] not in footprint
                    }, context
            if use_prediction:
                assert scheduler._fcfs_view is None, context
            _assert_matches_rebuild(scheduler, context)
        # Withdrawing everything returns the views to their fresh state.
        for app_id in scheduler.app_ids():
            scheduler.withdraw(app_id)
        fresh = scheduler._fresh_view().freeze()
        assert scheduler.residual_snapshot() == fresh
        assert scheduler.fcfs_snapshot() == (
            None if use_prediction else fresh
        )
