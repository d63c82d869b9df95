"""Semantic lint for scenario JSON files (``sparcle lint foo.json``).

:func:`repro.core.scenario.load_scenario` already *rejects* malformed
documents, but it stops at the first error and its exceptions point at the
constructor, not the document.  This validator walks the raw JSON first
and reports **every** problem with a scenario-level rule id:

* **SCN001** — a CT demands a resource no NCP provides (unknown or
  misspelled resource key: the placement can never be feasible);
* **SCN002** — dangling references (link endpoints, TT endpoints, pinned
  hosts, placement entries naming unknown elements);
* **SCN003** — negative capacities / requirements / bandwidths / rates;
* **SCN004** — everything the model constructors additionally enforce
  (duplicates, self-loops, cyclic task graphs, invalid placements...),
  surfaced by actually building the scenario via
  :func:`~repro.core.scenario.scenario_from_dict`.

The model construction in SCN004 is only attempted when SCN002/SCN003
found nothing, so reports never duplicate the same root cause.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.devtools.engine import Violation
from repro.exceptions import SparcleError

#: Rule ids this validator can emit (documented in docs/static-analysis.md).
SCENARIO_RULES = ("SCN001", "SCN002", "SCN003", "SCN004")


def lint_scenario(path: str | Path) -> list[Violation]:
    """Lint one scenario JSON file; returns all findings, sorted."""
    path = Path(path)
    name = path.as_posix()
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        return [Violation(name, 0, "SCN004", "scenario file not found")]
    except json.JSONDecodeError as error:
        return [Violation(name, error.lineno, "SCN004", f"not valid JSON: {error.msg}")]
    if not isinstance(doc, dict):
        return [Violation(name, 0, "SCN004", "scenario must be a JSON object")]
    return lint_scenario_dict(doc, source=name)


def lint_scenario_dict(doc: dict[str, Any], *, source: str = "scenario") -> list[Violation]:
    """Lint an in-memory scenario document (inverse-parsed JSON)."""
    violations: list[Violation] = []

    network = doc.get("network")
    application = doc.get("application")
    if not isinstance(network, dict):
        violations.append(Violation(source, 0, "SCN004", "missing 'network' object"))
        network = {}
    if not isinstance(application, dict):
        violations.append(Violation(source, 0, "SCN004", "missing 'application' object"))
        application = {}

    ncps = [n for n in _records(network, "ncps") if isinstance(n, dict)]
    links = [l for l in _records(network, "links") if isinstance(l, dict)]
    cts = [c for c in _records(application, "cts") if isinstance(c, dict)]
    tts = [t for t in _records(application, "tts") if isinstance(t, dict)]

    ncp_names = {n.get("name") for n in ncps} - {None}
    link_names = {l.get("name") for l in links} - {None}
    ct_names = {c.get("name") for c in cts} - {None}
    tt_names = {t.get("name") for t in tts} - {None}

    # ---- SCN003: negative quantities ---------------------------------
    for ncp in ncps:
        for resource, cap in _mapping(ncp, "capacities").items():
            if _negative(cap):
                violations.append(Violation(
                    source, 0, "SCN003",
                    f"NCP {ncp.get('name')!r} has negative capacity for "
                    f"{resource!r}: {cap}",
                ))
    for link in links:
        # "bandwidth" is the scenario format's JSON field name here, not a
        # resource-key lookup — same carve-out as core/scenario.py.
        if _negative(link.get("bandwidth")):  # sparcle: ignore[SPC001]
            violations.append(Violation(
                source, 0, "SCN003",
                f"link {link.get('name')!r} has negative bandwidth: "
                f"{link.get('bandwidth')}",  # sparcle: ignore[SPC001]
            ))
    for ct in cts:
        for resource, amount in _mapping(ct, "requirements").items():
            if _negative(amount):
                violations.append(Violation(
                    source, 0, "SCN003",
                    f"CT {ct.get('name')!r} has negative requirement for "
                    f"{resource!r}: {amount}",
                ))
    for tt in tts:
        if _negative(tt.get("megabits_per_unit")):
            violations.append(Violation(
                source, 0, "SCN003",
                f"TT {tt.get('name')!r} has negative megabits_per_unit: "
                f"{tt.get('megabits_per_unit')}",
            ))
    rate = doc.get("rate")
    if isinstance(rate, (int, float)) and not isinstance(rate, bool) and rate <= 0:
        violations.append(Violation(
            source, 0, "SCN003", f"scenario rate must be positive, got {rate}",
        ))

    # ---- SCN002: dangling references ---------------------------------
    for link in links:
        for endpoint_key in ("a", "b"):
            endpoint = link.get(endpoint_key)
            if endpoint is not None and endpoint not in ncp_names:
                violations.append(Violation(
                    source, 0, "SCN002",
                    f"link {link.get('name')!r} references unknown NCP "
                    f"{endpoint!r}",
                ))
    for ct in cts:
        pinned = ct.get("pinned_host")
        if pinned is not None and pinned not in ncp_names:
            violations.append(Violation(
                source, 0, "SCN002",
                f"CT {ct.get('name')!r} is pinned to unknown NCP {pinned!r}",
            ))
    for tt in tts:
        for endpoint_key in ("src", "dst"):
            endpoint = tt.get(endpoint_key)
            if endpoint is not None and endpoint not in ct_names:
                violations.append(Violation(
                    source, 0, "SCN002",
                    f"TT {tt.get('name')!r} references unknown CT {endpoint!r}",
                ))
    placement = doc.get("placement")
    if isinstance(placement, dict):
        for ct_name, host in _mapping(placement, "ct_hosts").items():
            if ct_name not in ct_names:
                violations.append(Violation(
                    source, 0, "SCN002",
                    f"placement hosts unknown CT {ct_name!r}",
                ))
            if host not in ncp_names:
                violations.append(Violation(
                    source, 0, "SCN002",
                    f"placement maps CT {ct_name!r} to unknown NCP {host!r}",
                ))
        for tt_name, route in _mapping(placement, "tt_routes").items():
            if tt_name not in tt_names:
                violations.append(Violation(
                    source, 0, "SCN002",
                    f"placement routes unknown TT {tt_name!r}",
                ))
            if isinstance(route, list):
                for hop in route:
                    if hop not in link_names:
                        violations.append(Violation(
                            source, 0, "SCN002",
                            f"route of TT {tt_name!r} uses unknown link {hop!r}",
                        ))

    # ---- SCN001: resource keys no NCP can serve ----------------------
    provided = {
        resource
        for ncp in ncps
        for resource, cap in _mapping(ncp, "capacities").items()
        if not _negative(cap)
    }
    demanded_unserved: dict[str, list[str]] = {}
    for ct in cts:
        for resource in _mapping(ct, "requirements"):
            if resource not in provided:
                demanded_unserved.setdefault(str(resource), []).append(
                    str(ct.get("name"))
                )
    for resource, demanding_cts in sorted(demanded_unserved.items()):
        violations.append(Violation(
            source, 0, "SCN001",
            f"resource {resource!r} is required by CT(s) "
            f"{sorted(demanding_cts)} but provided by no NCP",
        ))

    # ---- SCN004: everything the model constructors enforce -----------
    if not violations:
        from repro.core.scenario import scenario_from_dict

        try:
            scenario_from_dict(doc)
        except SparcleError as error:
            violations.append(Violation(source, 0, "SCN004", str(error)))
        except (TypeError, ValueError, KeyError, AttributeError) as error:
            # The oracle contract: adversarial documents (non-numeric
            # rates, wrong-shaped placements, capacities that are not
            # mappings...) must come back as violations, never as a lint
            # crash.  Constructor paths that slip past ScenarioError
            # wrapping land here.
            violations.append(Violation(
                source, 0, "SCN004",
                f"scenario construction failed "
                f"({type(error).__name__}): {error}",
            ))

    return sorted(violations)


def _records(doc: dict[str, Any], key: str) -> list[Any]:
    value = doc.get(key, [])
    return value if isinstance(value, list) else []


def _mapping(doc: dict[str, Any], key: str) -> dict[Any, Any]:
    value = doc.get(key, {})
    return value if isinstance(value, dict) else {}


def _negative(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value < 0
    )
