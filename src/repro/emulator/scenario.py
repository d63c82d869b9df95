"""The scenario file format under its original import path.

The format lives in :mod:`repro.core.scenario` — it serializes core
models and the serving path reads it, so it must be importable without
the emulator and simulator packages.  The emulator is the format's
origin (the paper's Mininet harness reads it) and this module keeps
``repro.emulator.scenario`` resolving to the same functions.
"""

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
