"""Fig. 6 — face-detection processing rate on the testbed.

Sweeps the field bandwidth over {0.5, 10, 22} Mbps and reports, per
scheduling algorithm, the analytical stable rate and (optionally) the rate
achieved by the discrete-event emulator driving the pipeline at 95% load.

Paper claims this experiment reproduces:

* at 0.5 Mbps, SPARCLE-based dispersed computing is ~9x the cloud rate;
* at 10 Mbps, SPARCLE only uses the cloud, which is the optimal choice;
* at 22 Mbps, dispersed computing still beats cloud-only by ~23%;
* SPARCLE tracks the exhaustive-search optimum at every bandwidth.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines import cloud_assign, optimal_assign
from repro.baselines.heft import heft_assign
from repro.baselines.tstorm import tstorm_assign
from repro.baselines.vne import vne_assign
from repro.core.assignment import sparcle_assign
from repro.core.placement import CapacityView
from repro.emulator.emulator import Emulator
from repro.core.scenario import ScenarioSpec
from repro.experiments.base import ExperimentResult, safe_rate
from repro.workloads.facedetect import (
    CLOUD,
    FIG6_FIELD_BANDWIDTHS,
    face_detection_graph,
    testbed_network,
)

#: Algorithms plotted in Fig. 6, in legend order.
ALGORITHMS = {
    "SPARCLE": sparcle_assign,
    "HEFT": heft_assign,
    "T-Storm": tstorm_assign,
    "VNE": vne_assign,
    "Cloud": lambda g, n, c=None: cloud_assign(g, n, c, cloud=CLOUD),
}


def run(
    *,
    bandwidths: Sequence[float] = FIG6_FIELD_BANDWIDTHS,
    emulate: bool = False,
    emulation_units: float = 120.0,
) -> ExperimentResult:
    """Reproduce Fig. 6.

    ``emulate=True`` additionally drives each placement through the
    discrete-event emulator (slower; the analytical column alone already
    determines the figure's shape).
    """
    graph = face_detection_graph()
    headers = ["field_bw_mbps", "algorithm", "rate"]
    if emulate:
        headers.append("emulated_rate")
    rows: list[list[object]] = []
    notes: list[str] = []
    sparcle_rates: dict[float, float] = {}
    cloud_rates: dict[float, float] = {}
    for bandwidth in bandwidths:
        network = testbed_network(bandwidth)
        optimal = optimal_assign(graph, network)
        for label, algorithm in ALGORITHMS.items():
            rate = safe_rate(algorithm, graph, network)
            row: list[object] = [bandwidth, label, rate]
            if emulate and rate > 0:
                result = algorithm(graph, network, CapacityView(network))
                spec = ScenarioSpec(
                    name=f"fig6-{label}-{bandwidth}", network=network,
                    graph=graph, placement=result.placement,
                )
                outcome = Emulator(spec).run(
                    duration=emulation_units / max(rate, 1e-9)
                )
                row.append(outcome.achieved_rate)
            elif emulate:
                row.append(0.0)
            rows.append(row)
            if label == "SPARCLE":
                sparcle_rates[bandwidth] = rate
            if label == "Cloud":
                cloud_rates[bandwidth] = rate
        row = [bandwidth, "optimal", optimal.rate]
        if emulate:
            row.append(float("nan"))
        rows.append(row)
        if sparcle_rates[bandwidth] >= optimal.rate * (1 - 1e-9):
            notes.append(f"{bandwidth} Mbps: SPARCLE matches the optimal assignment")
    low = min(bandwidths)
    high = max(bandwidths)
    if cloud_rates[low] > 0:
        notes.append(
            f"{low} Mbps: SPARCLE/cloud = "
            f"{sparcle_rates[low] / cloud_rates[low]:.1f}x (paper: ~9x)"
        )
    if cloud_rates[high] > 0:
        gain = 100.0 * (sparcle_rates[high] / cloud_rates[high] - 1.0)
        notes.append(f"{high} Mbps: SPARCLE beats cloud by {gain:.0f}% (paper: ~23%)")
    return ExperimentResult(
        experiment_id="fig6",
        title="Face-detection processing rate vs field bandwidth",
        headers=headers,
        rows=rows,
        notes=notes,
    )
