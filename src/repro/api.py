"""The supported public surface of the ``repro`` library, in one place.

Everything a downstream user of this reproduction should need is importable
from here::

    from repro.api import SparcleScheduler, AdmissionGateway, GRRequest

The facade groups the supported entry points by concern:

* **Modeling** — build applications (:class:`TaskGraph` et al.) and
  dispersed computing networks (:class:`Network` et al.).
* **Algorithms** — one-shot Algorithm-2 task assignment
  (:func:`sparcle_assign`) and its building blocks.
* **Admission** — the Fig.-3 multi-application control loop
  (:class:`SparcleScheduler`) plus the concurrent burst-admission service
  (:class:`AdmissionGateway`) and the online failure-repair loop
  (:class:`RepairController`).
* **Sharding** — the horizontally partitioned control plane:
  :func:`partition_network` splits a dispersed network into regions,
  :class:`ShardCoordinator` runs one gateway per region and brokers
  cross-shard placements through a two-phase reserve/commit protocol,
  and :class:`ShardEventLog` / :func:`replay_log` give each shard a
  durable log (checkpoints plus logged decisions) with
  bit-for-bit replay warm starts.
* **Serving** — the asyncio front-end over the control plane:
  :class:`SparcleServer` listens on one TCP port speaking both the
  versioned JSON-lines wire protocol (:data:`PROTOCOL_VERSION`,
  :class:`SubmitRequest` / :class:`DecisionReply`) and minimal HTTP
  (``/metrics``, ``/healthz``); :class:`SparcleClient` is the matching
  async client and :func:`serve` the blocking run-until-drained entry
  the ``sparcle serve`` CLI wraps.
* **Observability** — traced experiment runs and metric/trace exporters.
* **Devtools** — the ``sparcle lint`` static-analysis pass: the
  per-file rules SPC001, SPC004 and SPC006 (:class:`LintEngine`,
  :data:`DEFAULT_RULES`), the whole-program analysis SPC008
  (:class:`Analysis`, :data:`DEFAULT_ANALYSES`), structured per-file
  error reporting (:class:`LintError`), and the scenario-document
  validator :func:`lint_scenario`.
* **Chaos** — the ``sparcle soak`` harness: scenario fuzzing
  (:func:`fuzz_world`), deterministic event traces
  (:func:`generate_events`), the invariant registry
  (:func:`registered_invariants`) and the one-call soak pipeline
  (:func:`run_soak`).

Internal modules (``repro.core.*``, ``repro.service.*``, ``repro.perf.*``)
remain importable for power users and tests, but only the names re-exported
here — the exact contents of :data:`__all__` — are covered by the export
drift guard in ``tests/test_public_api.py``.  Add or remove names
deliberately: the test snapshot must change in the same commit.
"""

from __future__ import annotations

# --- Modeling -----------------------------------------------------------
from repro.core.network import (
    NCP,
    Link,
    Network,
    fully_connected_network,
    linear_network,
    star_network,
)
from repro.core.placement import CapacityView, Placement
from repro.core.taskgraph import (
    BANDWIDTH,
    CPU,
    MEMORY,
    ComputationTask,
    TaskGraph,
    TransportTask,
    diamond_task_graph,
    linear_task_graph,
    multi_camera_task_graph,
)

# --- Algorithms ---------------------------------------------------------
from repro.core.assignment import AssignmentResult, sparcle_assign
from repro.core.allocation import predicted_view, solve_proportional_fairness
from repro.core.availability import min_rate_availability
from repro.core.routing import widest_path

# --- Admission ----------------------------------------------------------
from repro.core.repair import RepairController, RepairEvent, RetryPolicy
from repro.core.scheduler import (
    AdmissionProposal,
    BERequest,
    Decision,
    GRRequest,
    SparcleScheduler,
    admit_all_gr,
    evaluate_admission,
)
from repro.exceptions import (
    AdmissionError,
    BackpressureError,
    GatewayError,
    SparcleError,
    StaleProposalError,
)
from repro.service.gateway import AdmissionGateway, EpochReport, GatewayStats

# --- Sharding -----------------------------------------------------------
from repro.exceptions import ShardError
from repro.service.shard import (
    FederationEpochReport,
    FederationStats,
    NetworkPartition,
    ShardCoordinator,
    ShardEventLog,
    ShardNode,
    partition_network,
    replay_log,
)

# --- Serving ------------------------------------------------------------
from repro.exceptions import ProtocolError, ServerError
from repro.service.client import SparcleClient
from repro.service.protocol import (
    PROTOCOL_VERSION,
    DecisionReply,
    SubmitRequest,
)
from repro.service.server import SparcleServer, serve

# --- Observability ------------------------------------------------------
from repro.experiments.base import export_observability, traced_run
from repro.perf.exporters import export_run, prometheus_snapshot, run_report

# --- Chaos --------------------------------------------------------------
from repro.chaos import (
    ChaosDriver,
    FuzzProfile,
    InvariantViolation,
    ServeSoakReport,
    SoakReport,
    fuzz_world,
    ShardSoakReport,
    generate_events,
    registered_invariants,
    run_serve_soak,
    run_shard_soak,
    run_soak,
)
from repro.exceptions import ChaosError

# --- Devtools -----------------------------------------------------------
from repro.devtools import (
    DEFAULT_ANALYSES,
    DEFAULT_RULES,
    Analysis,
    LintEngine,
    LintError,
    LintReport,
    Rule,
    Violation,
    lint_paths,
    lint_scenario,
)

__all__ = [
    # modeling
    "BANDWIDTH",
    "CPU",
    "CapacityView",
    "ComputationTask",
    "Link",
    "MEMORY",
    "NCP",
    "Network",
    "Placement",
    "TaskGraph",
    "TransportTask",
    "diamond_task_graph",
    "fully_connected_network",
    "linear_network",
    "linear_task_graph",
    "multi_camera_task_graph",
    "star_network",
    # algorithms
    "AssignmentResult",
    "min_rate_availability",
    "predicted_view",
    "solve_proportional_fairness",
    "sparcle_assign",
    "widest_path",
    # admission
    "AdmissionError",
    "AdmissionGateway",
    "AdmissionProposal",
    "BERequest",
    "BackpressureError",
    "Decision",
    "EpochReport",
    "GRRequest",
    "GatewayError",
    "GatewayStats",
    "RepairController",
    "RepairEvent",
    "RetryPolicy",
    "SparcleError",
    "SparcleScheduler",
    "StaleProposalError",
    "admit_all_gr",
    "evaluate_admission",
    # sharding
    "FederationEpochReport",
    "FederationStats",
    "NetworkPartition",
    "ShardCoordinator",
    "ShardError",
    "ShardEventLog",
    "ShardNode",
    "partition_network",
    "replay_log",
    # serving
    "DecisionReply",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServerError",
    "SparcleClient",
    "SparcleServer",
    "SubmitRequest",
    "serve",
    # observability
    "export_observability",
    "export_run",
    "prometheus_snapshot",
    "run_report",
    "traced_run",
    # chaos
    "ChaosDriver",
    "ChaosError",
    "FuzzProfile",
    "InvariantViolation",
    "ServeSoakReport",
    "ShardSoakReport",
    "SoakReport",
    "fuzz_world",
    "generate_events",
    "registered_invariants",
    "run_serve_soak",
    "run_shard_soak",
    "run_soak",
    # devtools
    "Analysis",
    "DEFAULT_ANALYSES",
    "DEFAULT_RULES",
    "LintEngine",
    "LintError",
    "LintReport",
    "Rule",
    "Violation",
    "lint_paths",
    "lint_scenario",
]
