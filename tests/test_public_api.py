"""Public-API hygiene: exports resolve, everything public is documented.

The :mod:`repro.api` facade additionally carries an export *drift guard*:
its ``__all__`` and the signatures of its callables are snapshotted below.
Any change to the supported surface — adding, removing, or re-signaturing
an entry point — must update the snapshot in the same commit, which makes
API drift show up in review instead of in downstream breakage.
"""

from __future__ import annotations

import inspect
import json
import warnings

import pytest

import repro
import repro.api
import repro.baselines
import repro.emulator
import repro.energy
import repro.experiments
import repro.runtime
import repro.service
import repro.simulator
import repro.workloads


PACKAGES = [
    repro,
    repro.api,
    repro.baselines,
    repro.emulator,
    repro.energy,
    repro.runtime,
    repro.service,
    repro.simulator,
    repro.workloads,
]

#: The supported public surface (see repro/api.py).  Update deliberately.
API_EXPORTS = [
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

#: Signature snapshot for the facade's plain functions: name -> parameters.
#: ``inspect.signature`` strings include defaults, so a default change
#: (silent behavior change for callers) also trips the guard.
API_SIGNATURES = {
    "sparcle_assign":
        "(graph: 'TaskGraph', network: 'Network', "
        "capacities: 'CapacityView | None' = None) -> 'AssignmentResult'",
    "evaluate_admission":
        "(request: 'BERequest | GRRequest', network: 'Network', "
        "view: 'CapacityView', *, assigner: 'Assigner' = <sparcle_assign>) "
        "-> 'AdmissionProposal'",
    "admit_all_gr":
        "(scheduler: 'SparcleScheduler', requests: 'list[GRRequest]', *, "
        "order: 'str' = 'arrival') -> 'tuple[list[Decision], float]'",
    "min_rate_availability":
        "(network: 'Network', profiles: 'Sequence[PathProfile]', "
        "min_rate: 'float') -> 'float'",
    "predicted_view":
        "(capacities: 'CapacityView', new_priority: 'float', "
        "tenants: 'Sequence[tuple[float, Sequence[Placement]]]') "
        "-> 'CapacityView'",
    "solve_proportional_fairness":
        "(apps: 'Sequence[BEApp]', capacities: 'CapacityView', *, "
        "method: 'str' = 'auto') -> 'AllocationResult'",
    "widest_path":
        "(network: 'Network', capacities: 'CapacityView', src: 'str', "
        "dst: 'str', tt_megabits: 'float', "
        "link_loads: 'Mapping[str, float] | None' = None, *, "
        "weights_cache: 'WeightsCache | None' = None) "
        "-> 'RouteResult | None'",
    "traced_run":
        '(run: "Callable[..., \'ExperimentResult\']", *, '
        "capacity: 'int | None' = None, **kwargs: 'Any') "
        '-> "tuple[\'ExperimentResult\', tracing.Tracer]"',
    "export_observability":
        "(directory: 'str | Path', *, experiment_id: 'str' = '', "
        "tracer_obj: 'tracing.Tracer | None' = None, labeled: 'Any' = None, "
        "extra: 'dict[str, Any] | None' = None) -> 'dict[str, Path]'",
    "lint_paths":
        "(paths: 'Sequence[str | Path]', *, "
        "rules: 'Sequence[Rule] | None' = None, "
        "analyses: 'Sequence[Analysis] | None' = None, "
        "root: 'str | Path | None' = None, "
        "baseline: 'Iterable[str]' = ()) -> 'LintReport'",
    "lint_scenario":
        "(path: 'str | Path') -> 'list[Violation]'",
    "run_soak":
        "(seed: 'int', n_events: 'int', *, "
        "profile: 'FuzzProfile | None' = None, quick: 'bool' = False, "
        "invariants: 'Sequence[str] | None' = None, "
        "sabotage: 'str | None' = None, sabotage_after: 'int' = 0, "
        "shrink: 'bool' = False) -> 'SoakReport'",
    "fuzz_world":
        "(rng: 'int | np.random.Generator | None', "
        "profile: 'FuzzProfile | None' = None, *, "
        "name: 'str' = 'chaos-world') -> 'FuzzedWorld'",
    "generate_events":
        "(rng: 'int | np.random.Generator | None', n_events: 'int', "
        "network: 'Network', profile: 'FuzzProfile | None' = None, *, "
        "queue_depth: 'int' = 24) -> 'list[ChaosEvent]'",
    "registered_invariants":
        "() -> 'tuple[str, ...]'",
    "partition_network":
        "(network: 'Network', n_shards: 'int' = 2, *, "
        "zones: 'Mapping[str, int] | None' = None) -> 'NetworkPartition'",
    "replay_log":
        "(records: 'Sequence[Mapping[str, Any]]') -> 'dict[str, LiveApp]'",
    "run_shard_soak":
        "(seed: 'int', n_events: 'int', *, n_shards: 'int' = 2, "
        "profile: 'FuzzProfile | None' = None, quick: 'bool' = False, "
        "invariants: 'Sequence[str] | None' = None, "
        "sabotage: 'str | None' = None, "
        "sabotage_after: 'int' = 0) -> 'ShardSoakReport'",
    "serve":
        "(network: 'Network', *, host: 'str' = '127.0.0.1', "
        "port: 'int' = 0, n_shards: 'int' = 2, "
        "zones: 'Mapping[str, int] | None' = None, "
        "assigner: 'Assigner' = <sparcle_assign>, "
        "max_queue_depth: 'int' = 128, "
        "log_dir: 'str | Path | None' = None, max_inflight: 'int' = 8, "
        "recover: 'bool' = False, "
        "ready: 'asyncio.Queue[int] | None' = None) -> 'None'",
    "prometheus_snapshot":
        "(labeled: 'PerfRegistry | None' = None) -> 'str'",
    "run_report":
        "(*, tracer_obj: 'Tracer | None' = None, "
        "labeled: 'PerfRegistry | None' = None, "
        "extra: 'dict[str, Any] | None' = None, "
        "clock: 'Callable[[], float] | None' = None) -> 'dict[str, Any]'",
    "export_run":
        "(directory: 'str | Path', *, tracer_obj: 'Tracer | None' = None, "
        "labeled: 'PerfRegistry | None' = None, "
        "extra: 'dict[str, Any] | None' = None, prefix: 'str' = '', "
        "clock: 'Callable[[], float] | None' = None) -> 'dict[str, Path]'",
    "run_serve_soak":
        "(seed: 'int', n_requests: 'int' = 24, *, n_shards: 'int' = 2, "
        "profile: 'FuzzProfile | None' = None, "
        "quick: 'bool' = False, "
        "log_dir: 'Path | None' = None) -> 'ServeSoakReport'",
}


def _normalized_signature(func) -> str:
    """``inspect.signature`` text with function defaults address-stripped."""
    import re

    text = str(inspect.signature(func))
    return re.sub(r"<function (\w+) at 0x[0-9a-f]+>", r"<\1>", text)


class TestApiDriftGuard:
    def test_facade_exports_match_snapshot(self):
        assert sorted(repro.api.__all__) == sorted(API_EXPORTS), (
            "repro.api.__all__ changed; update API_EXPORTS in the same "
            "commit if the change is intentional"
        )

    def test_facade_names_resolve_and_star_import_works(self):
        namespace: dict[str, object] = {}
        exec("from repro.api import *", namespace)  # noqa: S102
        missing = [n for n in repro.api.__all__ if n not in namespace]
        assert not missing, missing

    def test_function_signatures_match_snapshot(self):
        drifted = {}
        for name, expected in API_SIGNATURES.items():
            actual = _normalized_signature(getattr(repro.api, name))
            if actual != expected:
                drifted[name] = actual
        assert not drifted, (
            f"signatures drifted (update API_SIGNATURES deliberately): "
            f"{drifted}"
        )

    def test_every_signature_snapshot_names_an_export(self):
        unknown = set(API_SIGNATURES) - set(API_EXPORTS)
        assert not unknown, unknown

    def test_facade_emits_no_deprecation_warnings(self):
        # The supported surface must be clean: importing and touching every
        # facade name may not raise DeprecationWarning (removed shims must
        # not linger behind module __getattr__ hooks either).
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in repro.api.__all__:
                getattr(repro.api, name)

    def test_perf_registry_ratio_shim_is_removed(self):
        from repro.perf.counters import PerfRegistry

        assert not hasattr(PerfRegistry, "ratio")

    def test_scheduler_kind_delegates_are_removed(self):
        from repro.core.scheduler import SparcleScheduler

        for name in (
            "gr_paths", "be_paths", "gr_health", "be_health",
            "add_gr_path", "add_be_path",
        ):
            assert not hasattr(SparcleScheduler, name), name

    def test_admission_path_takes_no_pool_options(self):
        from repro.experiments.online_arrivals import run_gateway
        from repro.service.gateway import AdmissionGateway
        from repro.service.server import SparcleServer, serve
        from repro.service.shard import ShardCoordinator, ShardNode

        for entry in (
            AdmissionGateway, ShardNode, ShardCoordinator, SparcleServer,
            serve, run_gateway,
        ):
            parameters = inspect.signature(entry).parameters
            assert not {"workers", "executor"} & set(parameters), entry

    def test_local_lane_takes_no_retry_or_revalidation_options(self):
        # An epoch evaluates and commits one request at a time against
        # the live state: there is nothing to revalidate or retry, so the
        # signatures are exactly these (retries live on the coordinator's
        # cross-region lane only).
        from repro.core.scheduler import SparcleScheduler
        from repro.service.gateway import AdmissionGateway
        from repro.service.shard import ShardCoordinator, ShardNode

        assert list(inspect.signature(SparcleScheduler.commit).parameters) == [
            "self", "proposal",
        ]
        assert list(inspect.signature(AdmissionGateway).parameters) == [
            "scheduler", "max_queue_depth", "batch_size",
        ]
        for entry in (ShardNode, ShardCoordinator):
            assert "retry_policy" not in inspect.signature(entry).parameters
        assert "cross_retry_policy" in inspect.signature(
            ShardCoordinator
        ).parameters

    def test_capacity_ledger_signatures_match_snapshot(self):
        # Holds are exact integers: consume never refuses and takes no
        # clamp, a commit's check is reserve(), and a warm start charges
        # each adopted app instead of restoring frozen residuals.
        from repro.core.placement import CapacityView
        from repro.core.scheduler import SparcleScheduler

        hold = "(self, loads: 'Loads', rate: 'float') -> 'None'"
        snapshot = {
            CapacityView.consume: hold,
            CapacityView.release: hold,
            CapacityView.reserve:
                "(self, holds: 'Iterable[tuple[Loads, float]]') -> 'None'",
            SparcleScheduler.reserve_external:
                "(self, tag: 'str', "
                "consumptions: 'Sequence[tuple[Loads, float]]') "
                "-> 'frozenset[str]'",
        }
        for method, expected in snapshot.items():
            assert _normalized_signature(method) == expected, method
        for name in ("rederive", "reset_elements"):
            assert not hasattr(CapacityView, name), name
        # One view: the FCFS ledger of ablation A3 lives in its harness.
        for name in (
            "restore_residual", "_tenants", "_rebuild_gr_residual",
            "adopt_be", "fcfs_snapshot",
        ):
            assert not hasattr(SparcleScheduler, name), name


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_all_names_resolve(self, package):
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package.__name__}.{name}"

    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_all_is_sorted_strings(self, package):
        names = getattr(package, "__all__", [])
        assert all(isinstance(n, str) for n in names)

    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_every_public_item_documented(self, package):
        undocumented = []
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if inspect.ismodule(obj) or isinstance(obj, (str, dict, tuple, float, int)):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue  # type aliases etc. carry no docstring of their own
            if not inspect.getdoc(obj):
                undocumented.append(f"{package.__name__}.{name}")
        assert not undocumented, undocumented

    def test_public_methods_documented(self):
        from repro.core.placement import CapacityView, Placement
        from repro.core.scheduler import SparcleScheduler
        from repro.core.taskgraph import TaskGraph

        for cls in (TaskGraph, Placement, CapacityView, SparcleScheduler):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name}"


class TestDecisionExport:
    def test_decision_log_is_json_serializable(self):
        from repro.core.network import star_network
        from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
        from repro.core.taskgraph import linear_task_graph
        from repro.service.protocol import DecisionReply

        net = star_network(4, hub_cpu=4000.0, leaf_cpu=2000.0, link_bandwidth=20.0)
        scheduler = SparcleScheduler(net)
        g = linear_task_graph(2, cpu_per_ct=500.0, megabits_per_tt=1.0)
        g = g.with_pins({"source": "ncp1", "sink": "ncp2"})
        decisions = [
            scheduler.submit_gr(GRRequest("gr", g, min_rate=0.1)),
            scheduler.submit_be(BERequest("be", g.with_pins({}, name="be"))),
            scheduler.submit_gr(
                GRRequest("huge", g.with_pins({}, name="huge"),
                          min_rate=1e9, max_paths=1)
            ),
        ]
        # A caller's log renders through the wire schema, one record per
        # decision with the full placement of accepted applications.
        records = [
            DecisionReply.from_decision(d, seq=i).to_wire()
            for i, d in enumerate(decisions)
        ]
        text = json.dumps(records)
        reloaded = json.loads(text)
        assert len(reloaded) == 3
        assert reloaded[0]["accepted"] is True
        assert reloaded[2]["accepted"] is False
        assert reloaded[2]["reason"]
        assert reloaded[0]["placements"][0]["ct_hosts"]["source"] == "ncp1"
        assert [r["seq"] for r in reloaded] == [0, 1, 2]
