"""Service layer: long-running entry points above the core scheduler.

The core (:mod:`repro.core`) is a library of pure-ish algorithms and one
mutable :class:`~repro.core.scheduler.SparcleScheduler`; this package wraps
it in the machinery a deployed admission service needs — bounded arrival
queues, priority classes and epochs that evaluate and commit one request
at a time against the live state (:mod:`repro.service.gateway`) — and
scales it out horizontally: :mod:`repro.service.shard` partitions the
network into regions, runs one gateway per shard, and coordinates
cross-shard placements with a two-phase reserve/commit protocol backed by
durable per-shard event logs.

On top of both sits the network surface: :mod:`repro.service.protocol`
defines the versioned JSON-lines wire schema shared by in-process and
remote callers, :mod:`repro.service.server` runs the asyncio serving
front-end (``sparcle serve``) with per-client backpressure, graceful
drain, ``/metrics``, and event-log crash recovery, and
:mod:`repro.service.client` is the matching async client.
"""

from repro.service.client import SparcleClient, scrape_metrics
from repro.service.gateway import (
    AdmissionGateway,
    EpochReport,
    GatewayStats,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    DecisionReply,
    DrainReply,
    DrainRequest,
    ErrorReply,
    Message,
    StatusReply,
    StatusRequest,
    SubmitReply,
    SubmitRequest,
    TopologyReply,
    TopologyRequest,
    WithdrawReply,
    WithdrawRequest,
)
from repro.service.server import SparcleServer, serve
from repro.service.shard import (
    FederationEpochReport,
    FederationStats,
    LiveApp,
    NetworkPartition,
    ShardCoordinator,
    ShardEventLog,
    ShardNode,
    partition_network,
    replay_log,
)

__all__ = [
    "AdmissionGateway",
    "DecisionReply",
    "DrainReply",
    "DrainRequest",
    "EpochReport",
    "ErrorReply",
    "FederationEpochReport",
    "FederationStats",
    "GatewayStats",
    "LiveApp",
    "Message",
    "NetworkPartition",
    "PROTOCOL_VERSION",
    "ShardCoordinator",
    "ShardEventLog",
    "ShardNode",
    "SparcleClient",
    "SparcleServer",
    "StatusReply",
    "StatusRequest",
    "SubmitReply",
    "SubmitRequest",
    "TopologyReply",
    "TopologyRequest",
    "WithdrawReply",
    "WithdrawRequest",
    "partition_network",
    "replay_log",
    "scrape_metrics",
    "serve",
]
