"""SPARCLE's core: application/network models and the scheduling algorithms.

The public surface of the paper's contribution:

* :mod:`repro.core.taskgraph` — stream application DAGs (CTs + TTs);
* :mod:`repro.core.network` — dispersed computing networks (NCPs + links);
* :mod:`repro.core.placement` — task assignment paths, loads, stable rates;
* :mod:`repro.core.routing` — Algorithm 1 (load-aware widest path);
* :mod:`repro.core.arrays` — the CSR-compiled array kernel behind it;
* :mod:`repro.core.assignment` — Algorithm 2 (dynamic-ranking assignment);
* :mod:`repro.core.allocation` — Problem (4) solvers + Eq. (6) prediction;
* :mod:`repro.core.availability` — failure analysis, Eq. (7);
* :mod:`repro.core.scheduler` — the Fig. 3 multi-application control loop;
* :mod:`repro.core.repair` — the online failure-repair loop (extension);
* :mod:`repro.core.scenario` — the JSON scenario file format.
"""

from repro.core.analysis import (
    PlacementSummary,
    UtilizationEntry,
    bottleneck_sensitivity,
    placement_summary,
    utilization_report,
    what_if_capacity,
)
from repro.core.latency import (
    LatencyBreakdown,
    estimated_latency,
    zero_load_latency,
)
from repro.core.allocation import (
    AllocationResult,
    BEApp,
    predict_capacity_factors,
    predicted_view,
    solve_proportional_fairness,
)
from repro.core.assignment import (
    AssignmentResult,
    fixed_placement,
    greedy_assign_with_order,
    sparcle_assign,
)
from repro.core.availability import (
    PathProfile,
    any_path_availability,
    availability_ceiling,
    min_rate_availability,
    path_availability,
    single_points_of_failure,
)
from repro.core.network import (
    NCP,
    Link,
    Network,
    fully_connected_network,
    linear_network,
    star_network,
)
from repro.core.placement import CapacityView, Placement
from repro.core.repair import (
    RepairController,
    RepairEvent,
    RepairOutcome,
    RetryPolicy,
)
from repro.core.arrays import (
    CompiledNetwork,
    compile_network,
    link_residuals,
    link_weights,
)
from repro.core.routing import (
    RouteResult,
    hop_shortest_path,
    widest_path,
)
from repro.core.scheduler import (
    BEHealth,
    BERequest,
    Decision,
    FluctuationReport,
    GRHealth,
    GRRequest,
    OutageReport,
    PathRecord,
    ReplanReport,
    SparcleScheduler,
    admit_all_gr,
)
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

__all__ = [
    "AllocationResult",
    "AssignmentResult",
    "BANDWIDTH",
    "BEApp",
    "BEHealth",
    "BERequest",
    "CPU",
    "CapacityView",
    "CompiledNetwork",
    "ComputationTask",
    "Decision",
    "FluctuationReport",
    "GRHealth",
    "GRRequest",
    "LatencyBreakdown",
    "Link",
    "MEMORY",
    "NCP",
    "Network",
    "OutageReport",
    "PathProfile",
    "PathRecord",
    "Placement",
    "PlacementSummary",
    "RepairController",
    "RepairEvent",
    "RepairOutcome",
    "ReplanReport",
    "RetryPolicy",
    "RouteResult",
    "SparcleScheduler",
    "TaskGraph",
    "TransportTask",
    "UtilizationEntry",
    "bottleneck_sensitivity",
    "estimated_latency",
    "placement_summary",
    "utilization_report",
    "what_if_capacity",
    "zero_load_latency",
    "admit_all_gr",
    "any_path_availability",
    "availability_ceiling",
    "compile_network",
    "diamond_task_graph",
    "fixed_placement",
    "fully_connected_network",
    "greedy_assign_with_order",
    "hop_shortest_path",
    "link_residuals",
    "link_weights",
    "linear_network",
    "linear_task_graph",
    "min_rate_availability",
    "multi_camera_task_graph",
    "path_availability",
    "predict_capacity_factors",
    "predicted_view",
    "single_points_of_failure",
    "solve_proportional_fairness",
    "sparcle_assign",
    "star_network",
    "widest_path",
]
