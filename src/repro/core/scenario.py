"""Scenario (de)serialization — the emulator's experiment file format.

The paper's Mininet-based emulator "first reads the experiment scenario file
describing NCPs and their CPU capacities, links and their bandwidths,
routing paths, and the CT/TT requirements", then builds the virtual network
and runs the experiment.  This module defines that file format as plain
JSON so scenarios are scriptable, diffable, and replayable:

.. code-block:: json

    {
      "name": "fig6-0.5mbps",
      "network": {"ncps": [{"name": "cloud", "capacities": {"cpu": 15200.0}}, ...],
                   "links": [{"name": "access", "a": "cloud", "b": "ncp1",
                              "bandwidth": 100.0}, ...]},
      "application": {"cts": [{"name": "resize", "requirements": {"cpu": 9880.0}},
                               ...],
                       "tts": [{"name": "raw", "src": "camera", "dst": "resize",
                                "megabits_per_unit": 24.8}, ...]},
      "placement": {"ct_hosts": {"resize": "ncp2", ...},
                     "tt_routes": {"raw": [], "resized": ["f2"], ...}},
      "rate": 0.23
    }

``placement`` and ``rate`` are optional: without them the emulator runs the
scheduler itself.

The module lives in ``repro.core`` because it serializes core models only
and the serving path (``sparcle serve``, the wire protocol's graph form)
reads it without importing the emulator or simulator packages;
``repro.emulator.scenario`` re-exports it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.network import NCP, Link, Network
from repro.core.placement import Placement
from repro.core.taskgraph import ComputationTask, TaskGraph, TransportTask
from repro.exceptions import ScenarioError, SparcleError


@dataclass
class ScenarioSpec:
    """A parsed scenario: the network, the application, optional placement."""

    name: str
    network: Network
    graph: TaskGraph
    placement: Placement | None = None
    rate: float | None = None


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def network_to_dict(network: Network) -> dict[str, Any]:
    """Serialize a network to plain JSON-compatible data."""
    return {
        "name": network.name,
        "directed": network.directed,
        "ncps": [
            {
                "name": ncp.name,
                "capacities": dict(ncp.capacities),
                "failure_probability": ncp.failure_probability,
            }
            for ncp in network.ncps
        ],
        "links": [
            {
                "name": link.name,
                "a": link.a,
                "b": link.b,
                "bandwidth": link.bandwidth,
                "failure_probability": link.failure_probability,
            }
            for link in network.links
        ],
    }


def graph_to_dict(graph: TaskGraph) -> dict[str, Any]:
    """Serialize a task graph to plain JSON-compatible data."""
    return {
        "name": graph.name,
        "cts": [
            {
                "name": ct.name,
                "requirements": dict(ct.requirements),
                "pinned_host": ct.pinned_host,
            }
            for ct in graph.cts
        ],
        "tts": [
            {
                "name": tt.name,
                "src": tt.src,
                "dst": tt.dst,
                "megabits_per_unit": tt.megabits_per_unit,
            }
            for tt in graph.tts
        ],
    }


def scenario_to_dict(
    name: str,
    network: Network,
    graph: TaskGraph,
    placement: Placement | None = None,
    rate: float | None = None,
) -> dict[str, Any]:
    """Bundle everything into one scenario document."""
    doc: dict[str, Any] = {
        "name": name,
        "network": network_to_dict(network),
        "application": graph_to_dict(graph),
    }
    if placement is not None:
        doc["placement"] = {
            "ct_hosts": dict(placement.ct_hosts),
            "tt_routes": {k: list(v) for k, v in placement.tt_routes.items()},
        }
    if rate is not None:
        doc["rate"] = rate
    return doc


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _require(doc: dict[str, Any], key: str, context: str) -> Any:
    try:
        return doc[key]
    except KeyError:
        raise ScenarioError(f"scenario {context} is missing required key {key!r}") from None


def network_from_dict(doc: dict[str, Any]) -> Network:
    """Parse a network document (inverse of :func:`network_to_dict`)."""
    try:
        ncps = [
            NCP(
                _require(n, "name", "NCP"),
                n.get("capacities", {}),
                failure_probability=n.get("failure_probability", 0.0),
            )
            for n in _require(doc, "ncps", "network")
        ]
        links = [
            Link(
                _require(l, "name", "link"),
                _require(l, "a", "link"),
                _require(l, "b", "link"),
                _require(l, "bandwidth", "link"),
                failure_probability=l.get("failure_probability", 0.0),
            )
            for l in doc.get("links", [])
        ]
        return Network(
            doc.get("name", "network"), ncps, links,
            directed=bool(doc.get("directed", False)),
        )
    except SparcleError:
        raise
    except (TypeError, ValueError) as error:
        raise ScenarioError(f"malformed network document: {error}") from error


def graph_from_dict(doc: dict[str, Any]) -> TaskGraph:
    """Parse an application document (inverse of :func:`graph_to_dict`)."""
    try:
        cts = [
            ComputationTask(
                _require(c, "name", "CT"),
                c.get("requirements", {}),
                pinned_host=c.get("pinned_host"),
            )
            for c in _require(doc, "cts", "application")
        ]
        tts = [
            TransportTask(
                _require(t, "name", "TT"),
                _require(t, "src", "TT"),
                _require(t, "dst", "TT"),
                _require(t, "megabits_per_unit", "TT"),
            )
            for t in doc.get("tts", [])
        ]
        return TaskGraph(doc.get("name", "application"), cts, tts)
    except SparcleError:
        raise
    except (TypeError, ValueError) as error:
        raise ScenarioError(f"malformed application document: {error}") from error


def scenario_from_dict(doc: dict[str, Any]) -> ScenarioSpec:
    """Parse a full scenario document, validating the placement if present."""
    network = network_from_dict(_require(doc, "network", "document"))
    graph = graph_from_dict(_require(doc, "application", "document"))
    placement = None
    if "placement" in doc:
        pdoc = doc["placement"]
        placement = Placement(
            graph,
            _require(pdoc, "ct_hosts", "placement"),
            {k: tuple(v) for k, v in _require(pdoc, "tt_routes", "placement").items()},
        )
        placement.validate(network)
    rate = doc.get("rate")
    if rate is not None and rate <= 0:
        raise ScenarioError(f"scenario rate must be positive, got {rate}")
    return ScenarioSpec(
        name=doc.get("name", "scenario"),
        network=network,
        graph=graph,
        placement=placement,
        rate=rate,
    )


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def save_scenario(path: str | Path, doc: dict[str, Any]) -> None:
    """Write a scenario document as pretty-printed JSON."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read and parse a scenario JSON file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ScenarioError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path} must contain a JSON object")
    return scenario_from_dict(doc)
