"""Ablation A3 — Theorem-3 capacity prediction vs FCFS placement.

Two BE applications with priorities 1 and 2 arrive in both orders.  With
the Eq. (6) prediction, each application is placed against its *fair share*
of contested elements, so the final allocated rates should barely depend on
who arrived first.  Without it (FCFS consumption), the early arrival grabs
the best spots and the rates swing with the order.

The scheduler only predicts; the FCFS policy lives here.  This harness
keeps its own ledger of the placed BE apps' holds (each accepted path at
its rate), places each arrival against a copy of it, and commits the
result to a default scheduler, whose Problem-(4) allocation is then
compared across the two orders.

Metric: mean relative disparity of each app's allocated rate between the
two arrival orders (0 = perfectly order-independent).
"""

from __future__ import annotations

from repro.core.placement import CapacityView
from repro.core.scheduler import BERequest, SparcleScheduler, evaluate_admission
from repro.exceptions import SparcleError
from repro.utils.rng import spawn_rngs
from repro.utils.stats import mean
from repro.utils.tables import format_table
from repro.workloads.scenarios import (
    BottleneckCase,
    GraphKind,
    TopologyKind,
    make_scenario,
    random_task_graph,
)

TRIALS = 25


def _order_disparity(network, graph_a, graph_b, *, fcfs: bool) -> float | None:
    def run(order):
        scheduler = SparcleScheduler(network)
        # FCFS: what earlier arrivals hold, so later ones see leftovers only.
        ledger = CapacityView(network)
        for app_id, graph, priority in order:
            request = BERequest(app_id, graph, priority=priority)
            if fcfs:
                decision = scheduler.commit(
                    evaluate_admission(request, network, ledger.copy())
                )
                for placement, rate in zip(
                    decision.placements, decision.path_rates
                ):
                    ledger.consume(placement.loads(), rate)
            else:
                decision = scheduler.submit_be(request)
            if not decision.accepted:
                raise SparcleError("rejected")
        return scheduler.allocate_be().app_rates

    try:
        forward = run([("a", graph_a, 1.0), ("b", graph_b, 2.0)])
        backward = run([("b", graph_b, 2.0), ("a", graph_a, 1.0)])
    except SparcleError:
        return None
    disparity = 0.0
    for app_id in ("a", "b"):
        hi = max(forward[app_id], backward[app_id])
        lo = min(forward[app_id], backward[app_id])
        if hi <= 0:
            return None
        disparity += (hi - lo) / hi
    return disparity / 2.0


def _sweep() -> list[list[object]]:
    with_pred, without_pred = [], []
    for rng in spawn_rngs(103, TRIALS):
        scenario = make_scenario(
            BottleneckCase.BALANCED, GraphKind.DIAMOND, TopologyKind.STAR,
            rng, n_ncps=8,
        )
        pins = {
            "ct1": scenario.graph.ct("ct1").pinned_host,
            "ct8": scenario.graph.ct("ct8").pinned_host,
        }
        graph_b = random_task_graph(GraphKind.DIAMOND, rng).with_pins(pins, name="b")
        predicted = _order_disparity(
            scenario.network, scenario.graph, graph_b, fcfs=False
        )
        fcfs = _order_disparity(
            scenario.network, scenario.graph, graph_b, fcfs=True
        )
        if predicted is None or fcfs is None:
            continue
        with_pred.append(predicted)
        without_pred.append(fcfs)
    return [
        ["prediction (Eq. 6)", mean(with_pred), len(with_pred)],
        ["FCFS (no prediction)", mean(without_pred), len(without_pred)],
    ]


def test_ablation_prediction(benchmark, capsys):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            ["policy", "mean_order_disparity", "trials"], rows,
            title="[A3] arrival-order sensitivity",
        ))
    disparity = {row[0]: row[1] for row in rows}
    # Prediction makes allocations (weakly) less order-sensitive.
    assert disparity["prediction (Eq. 6)"] <= disparity["FCFS (no prediction)"] + 0.02
