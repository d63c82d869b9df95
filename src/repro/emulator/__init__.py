"""Testbed emulator (Mininet substitute) and its scenario file format."""

from repro.emulator.emulator import EmulationOutcome, Emulator
from repro.core.scenario import (
    ScenarioSpec,
    graph_from_dict,
    graph_to_dict,
    load_scenario,
    network_from_dict,
    network_to_dict,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "EmulationOutcome",
    "Emulator",
    "ScenarioSpec",
    "graph_from_dict",
    "graph_to_dict",
    "load_scenario",
    "network_from_dict",
    "network_to_dict",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
]
