"""Extension experiment: online application arrivals and departures.

The paper's model has applications "arrive over time" but evaluates static
snapshots; this extension runs the full churn: GR and BE applications
arrive as a Poisson-like process (exponential inter-arrival), hold the
network for an exponential lifetime, and depart (releasing reservations).
Per task-assignment algorithm we measure:

* **acceptance ratio** — admitted / offered GR applications;
* **carried guaranteed rate** — time-average of the aggregate reserved GR
  rate (the "revenue" an operator actually banks).

Placements are never migrated (the paper's no-migration constraint), so a
smarter initial placement leaves more room for future arrivals — the same
mechanism as Fig. 14, now measured under churn rather than one-shot.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from repro.baselines import gs_assign, tstorm_assign, vne_assign
from repro.baselines.greedy import grand_assigner
from repro.baselines.naive import random_assigner
from repro.core.assignment import sparcle_assign
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.experiments.base import ExperimentResult
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.stats import mean
from repro.workloads.scenarios import (
    BottleneckCase,
    GraphKind,
    TopologyKind,
    make_scenario,
    random_task_graph,
)

#: Mean inter-arrival time and mean holding time (simulated seconds).
MEAN_INTERARRIVAL = 10.0
MEAN_HOLDING = 60.0
#: Simulated horizon per trial.
HORIZON = 400.0
#: Requested min-rate range as fractions of the solo reference rate.
RATE_FRACTIONS = (0.1, 0.4)


@dataclass
class ChurnOutcome:
    """Aggregates of one churn run."""

    offered: int
    accepted: int
    carried_rate_time_avg: float

    @property
    def acceptance_ratio(self) -> float:
        """Admitted over offered applications."""
        return self.accepted / self.offered if self.offered else 0.0


def _assigners(rng):
    generator = ensure_rng(rng)
    return {
        "SPARCLE": sparcle_assign,
        "GRand": grand_assigner(generator),
        "GS": gs_assign,
        "T-Storm": tstorm_assign,
        "Random": random_assigner(generator),
        "VNE": vne_assign,
    }


def run_churn(scenario, assigner, rng) -> ChurnOutcome:
    """Simulate one arrival/departure process against one assigner."""
    generator = ensure_rng(rng)
    scheduler = SparcleScheduler(scenario.network, assigner=assigner)
    reference = max(
        sparcle_assign(scenario.graph, scenario.network).rate, 1e-6
    )
    pins = {
        "source": scenario.graph.ct("ct1").pinned_host,
        "sink": scenario.graph.ct("ct8").pinned_host,
    }
    clock = 0.0
    next_arrival = float(generator.exponential(MEAN_INTERARRIVAL))
    departures: list[tuple[float, str]] = []  # (time, app_id)
    offered = 0
    accepted = 0
    carried = 0.0  # integral of reserved rate over time
    current_rate = 0.0
    arrival_index = 0
    while next_arrival < HORIZON or departures:
        departure_time = departures[0][0] if departures else float("inf")
        if next_arrival < departure_time and next_arrival < HORIZON:
            event_time = next_arrival
            carried += current_rate * (event_time - clock)
            clock = event_time
            offered += 1
            kind = GraphKind.DIAMOND if arrival_index % 2 == 0 else GraphKind.LINEAR
            graph = random_task_graph(kind, generator)
            if kind is GraphKind.DIAMOND:
                graph = graph.with_pins(
                    {"ct1": pins["source"], "ct8": pins["sink"]},
                    name=f"app{arrival_index}",
                )
            else:
                graph = graph.with_pins(
                    {"source": pins["source"], "sink": pins["sink"]},
                    name=f"app{arrival_index}",
                )
            fraction = float(generator.uniform(*RATE_FRACTIONS))
            decision = scheduler.submit_gr(
                GRRequest(f"app{arrival_index}", graph,
                          min_rate=fraction * reference, max_paths=2)
            )
            if decision.accepted:
                accepted += 1
                current_rate += decision.total_rate
                lifetime = float(generator.exponential(MEAN_HOLDING))
                heapq.heappush(
                    departures, (clock + lifetime, f"app{arrival_index}")
                )
            arrival_index += 1
            next_arrival = clock + float(generator.exponential(MEAN_INTERARRIVAL))
        else:
            event_time, app_id = heapq.heappop(departures)
            event_time = min(event_time, HORIZON) if not departures and next_arrival >= HORIZON else event_time
            carried += current_rate * (event_time - clock)
            clock = event_time
            released = next(
                d.total_rate for d in scheduler.decisions
                if d.app_id == app_id and d.accepted
            )
            scheduler.withdraw(app_id)
            current_rate -= released
    horizon = max(clock, HORIZON)
    return ChurnOutcome(
        offered=offered,
        accepted=accepted,
        carried_rate_time_avg=carried / horizon if horizon > 0 else 0.0,
    )


def burst_requests(scenario, rng, *, count: int = 100,
                   gr_fraction: float = 0.6) -> list:
    """A bursty arrival batch: ``count`` mixed GR/BE requests at once.

    The churn experiment offers ~``HORIZON / MEAN_INTERARRIVAL`` ≈ 40
    requests over the whole horizon; a burst packs 10–100× that arrival
    density into a single instant — the regime the admission gateway's
    epoch batching is built for.  Requests reuse the churn generator's
    graph mix and pins; GR min-rates are drawn from :data:`RATE_FRACTIONS`
    of the solo reference rate, BE priorities from ``{1, 2, 4}``.
    """
    generator = ensure_rng(rng)
    reference = max(
        sparcle_assign(scenario.graph, scenario.network).rate, 1e-6
    )
    pins = {
        "source": scenario.graph.ct("ct1").pinned_host,
        "sink": scenario.graph.ct("ct8").pinned_host,
    }
    requests = []
    for index in range(count):
        kind = GraphKind.DIAMOND if index % 2 == 0 else GraphKind.LINEAR
        graph = random_task_graph(kind, generator)
        if kind is GraphKind.DIAMOND:
            graph = graph.with_pins(
                {"ct1": pins["source"], "ct8": pins["sink"]},
                name=f"burst{index}",
            )
        else:
            graph = graph.with_pins(
                {"source": pins["source"], "sink": pins["sink"]},
                name=f"burst{index}",
            )
        if generator.uniform(0.0, 1.0) < gr_fraction:
            fraction = float(generator.uniform(*RATE_FRACTIONS))
            requests.append(GRRequest(
                f"burst{index}", graph,
                min_rate=fraction * reference, max_paths=2,
            ))
        else:
            priority = float(generator.choice([1.0, 2.0, 4.0]))
            requests.append(BERequest(
                f"burst{index}", graph, priority=priority, max_paths=2,
            ))
    return requests


def run_gateway(*, requests: int = 100, seed: int = 77) -> ExperimentResult:
    """Burst admission through the gateway vs. one-at-a-time submission.

    Both modes see the identical burst in the identical priority order
    (GR class first, weighted FIFO within class); the gateway additionally
    queues the burst and decides it in epochs.  Rows report wall-clock
    throughput and the epoch count, so equivalence (same accepted count)
    and the queueing overhead are both visible.
    """
    from repro.service import AdmissionGateway

    rng = ensure_rng(seed)
    scenario = make_scenario(
        BottleneckCase.BALANCED, GraphKind.DIAMOND, TopologyKind.STAR,
        rng, n_ncps=8,
    )
    burst = burst_requests(scenario, rng, count=requests)
    ordered = AdmissionGateway.priority_order(burst)

    serial = SparcleScheduler(scenario.network)
    start = time.perf_counter()
    serial_decisions = [serial.commit(serial.evaluate(r)) for r in ordered]
    serial_wall = time.perf_counter() - start

    gw_scheduler = SparcleScheduler(scenario.network)
    with AdmissionGateway(
        gw_scheduler, max_queue_depth=max(len(burst), 1),
    ) as gateway:
        start = time.perf_counter()
        gateway_decisions = gateway.process(burst)
        gateway_wall = time.perf_counter() - start

    rows = [
        ["serial", len(burst), sum(d.accepted for d in serial_decisions),
         serial_wall, len(burst) / serial_wall if serial_wall > 0 else 0.0,
         0],
        ["gateway", len(burst),
         sum(d.accepted for d in gateway_decisions),
         gateway_wall,
         len(burst) / gateway_wall if gateway_wall > 0 else 0.0,
         gateway.stats.epochs],
    ]
    notes = [
        f"burst of {len(burst)} requests "
        f"({sum(isinstance(r, GRRequest) for r in burst)} GR / "
        f"{sum(isinstance(r, BERequest) for r in burst)} BE)",
    ]
    if rows[0][2] == rows[1][2]:
        notes.append("accepted sets agree with serial admission")
    return ExperimentResult(
        experiment_id="gateway",
        title="Burst admission: gateway vs serial (extension)",
        headers=["mode", "offered", "accepted", "wall_s", "req_per_s",
                 "epochs"],
        rows=rows,
        notes=notes,
    )


def run(*, trials: int = 10, seed: int = 77) -> ExperimentResult:
    """The churn extension; one row per algorithm."""
    acceptance: dict[str, list[float]] = {}
    carried: dict[str, list[float]] = {}
    for rng in spawn_rngs(seed, trials):
        scenario = make_scenario(
            BottleneckCase.BALANCED, GraphKind.DIAMOND, TopologyKind.STAR,
            rng, n_ncps=8,
        )
        for label, assigner in _assigners(rng).items():
            outcome = run_churn(scenario, assigner, rng)
            acceptance.setdefault(label, []).append(outcome.acceptance_ratio)
            carried.setdefault(label, []).append(outcome.carried_rate_time_avg)
    rows = [
        [label, mean(acceptance[label]), mean(carried[label])]
        for label in acceptance
    ]
    best = max(rows, key=lambda row: row[2])[0]
    return ExperimentResult(
        experiment_id="online",
        title="Online GR arrivals/departures (extension)",
        headers=["algorithm", "acceptance_ratio", "carried_rate"],
        rows=rows,
        notes=[f"highest carried guaranteed rate under churn: {best}"],
    )
