"""The testbed emulator — this repository's Mininet substitute.

The paper evaluates Fig. 6 on a physical testbed and, at larger scale, on
Mininet: a scenario file describes the network and application, an emulated
network is built, the pipeline runs, and the achieved processing rate is
reported.  Here the "virtual network" is the discrete-event queueing
simulator of :mod:`repro.simulator`, which models the same first-order
dynamics (CPU seconds per image on each host, transfer seconds per image on
each link, FIFO contention on shared elements).

Usage::

    emulator = Emulator.from_file("scenario.json")
    outcome = emulator.run()           # schedules with SPARCLE if needed
    print(outcome.achieved_rate)

The emulator drives the pipeline slightly *below* the analytical stable
rate by default (``load_factor=0.95``), as a real deployment would, and
reports both the offered and achieved rates plus queue/latency evidence
that the operating point is stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.assignment import AssignmentResult, sparcle_assign
from repro.core.placement import CapacityView, Placement
from repro.core.scheduler import Assigner
from repro.core.scenario import ScenarioSpec, load_scenario, scenario_from_dict
from repro.exceptions import ScenarioError
from repro.simulator.streamsim import SimulationReport, StreamSimulator


@dataclass
class EmulationOutcome:
    """What one emulator run observed."""

    scenario: str
    offered_rate: float
    achieved_rate: float
    stable: bool
    analytical_rate: float
    placement: Placement
    report: SimulationReport

    @property
    def efficiency(self) -> float:
        """Achieved over offered rate (1.0 = every emitted unit delivered)."""
        if self.offered_rate <= 0:
            return 0.0
        return self.achieved_rate / self.offered_rate


class Emulator:
    """Run a scenario end-to-end: schedule (if needed), simulate, report."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec

    @classmethod
    def from_file(cls, path: str | Path) -> "Emulator":
        """Load a scenario JSON file."""
        return cls(load_scenario(path))

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Emulator":
        """Parse an in-memory scenario document."""
        return cls(scenario_from_dict(doc))

    def schedule(self, assigner: Assigner = sparcle_assign) -> AssignmentResult:
        """Produce a placement for the scenario's application.

        Used when the scenario file does not carry a placement; the chosen
        ``assigner`` defaults to SPARCLE's Algorithm 2.
        """
        return assigner(self.spec.graph, self.spec.network, CapacityView(self.spec.network))

    def run(
        self,
        *,
        assigner: Assigner = sparcle_assign,
        load_factor: float = 0.95,
        duration: float | None = None,
        warmup_fraction: float = 0.1,
        stability_backlog: int = 50,
        discipline: str = "fifo",
        arrival_process: str = "deterministic",
        inject_failures: bool = False,
        failure_mean_cycle: float = 50.0,
        failure_rng: int = 0,
    ) -> EmulationOutcome:
        """Emulate the scenario and measure the achieved processing rate.

        The input rate is ``load_factor`` times the placement's analytical
        stable rate unless the scenario pinned an explicit ``rate``.
        ``duration`` defaults to the time needed to push ~500 data units
        through.  ``stable`` in the outcome means the end-of-run backlog on
        every element stayed under ``stability_backlog`` jobs.
        """
        if not 0.0 < load_factor <= 1.0:
            raise ScenarioError(f"load_factor must be in (0, 1], got {load_factor}")
        if self.spec.placement is not None:
            placement = self.spec.placement
            analytical = placement.bottleneck_rate(CapacityView(self.spec.network))
        else:
            result = self.schedule(assigner)
            placement = result.placement
            analytical = result.rate
        if analytical <= 0:
            raise ScenarioError(
                f"scenario {self.spec.name!r} admits no positive processing rate"
            )
        offered = self.spec.rate if self.spec.rate is not None else analytical * load_factor
        horizon = duration if duration is not None else max(500.0 / offered, 10.0)
        warmup = horizon * warmup_fraction
        simulator = StreamSimulator(
            self.spec.network, placement, offered,
            discipline=discipline, arrival_process=arrival_process,
        )
        injector = None
        if inject_failures:
            from repro.simulator.failures import FailureInjector

            injector = FailureInjector(
                simulator, self.spec.network,
                mean_cycle=failure_mean_cycle, rng=failure_rng,
            )
            injector.arm()
        report = simulator.run(horizon, warmup=warmup)
        if injector is not None:
            injector.finalize(horizon)
        return EmulationOutcome(
            scenario=self.spec.name,
            offered_rate=offered,
            achieved_rate=report.throughput,
            stable=report.max_backlog <= stability_backlog,
            analytical_rate=analytical,
            placement=placement,
            report=report,
        )
