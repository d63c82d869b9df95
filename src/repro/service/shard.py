"""Sharded control plane: federated admission over a partitioned network.

One :class:`~repro.service.gateway.AdmissionGateway` over one global
:class:`~repro.core.network.Network` serializes every admission on a single
scheduler.  This module partitions the NCP/link graph into *regions*
(operator-supplied zones or a min-bottleneck-cut heuristic over link
capacity), runs one scheduler + gateway per region, and coordinates the
placements that cannot be satisfied inside a single region:

* :func:`partition_network` — split a network into connected region
  subnetworks plus the *boundary links* that cross regions.
* :class:`ShardNode` — one region: a private :class:`SparcleScheduler`
  over the region subnetwork, an :class:`AdmissionGateway` in front of it,
  and a durable JSONL :class:`ShardEventLog` recording every state change
  as the decision that caused it (admitted loads, reserved loads,
  withdrawn ids), on top of full-state checkpoints.
* :class:`ShardCoordinator` — routes submits to the owning shard (pins
  decide; unpinned requests round-robin), and runs a **two-phase
  reserve/commit** for requests whose pins span regions: phase 1 evaluates
  against a merged view built from frozen
  :class:`~repro.core.network.ResidualSnapshot` reservations of every
  shard plus the boundary-link ledger; phase 2 revalidates optimistically
  against the live merged state and applies per-owner external
  reservations, aborting with
  :class:`~repro.exceptions.StaleProposalError` and re-queueing under a
  :class:`~repro.core.repair.RetryPolicy` budget, then falling back to a
  global serial evaluate+commit so every request terminates with a
  decision.

Cross-region Best-Effort flows are *pinned at their admitted share*: the
coordinator reserves their evaluated path rates like GR reservations
(Problem-(4) re-allocation stays intra-shard), which is what makes the
boundary-link ledger conservative — a boundary link can never be
double-booked by two shards because only the coordinator consumes it.

**Durability and warm start.**  A log is a *checkpoint* (the live
applications with their holds, and the shard network) followed by
records that carry each decision, not its consequence: the loads an
epoch admitted or a cross-shard reservation took, the id a withdrawal
released.  One step, :func:`fold_record`, turns a record into a change
of the live-app table; a node applies it to every record it appends,
and :func:`replay_log` applies it to a log from its last checkpoint, so
both arrive at the same table.  A view is capacity minus the exact
integer sum of the table's holds
(:class:`~repro.core.placement.CapacityView`), whatever order they came
and went in, so a warm-started shard (:func:`hold_apps`) arrives at the
live views bit-for-bit without re-solving admission.  Logged live
applications are *adopted* as opaque tenants (their capacity stays
held, duplicates stay rejected, withdrawal still works);
queued-but-undecided siblings are lost — exactly-once is the submitting
client's retry loop, not the log's.  A record is flushed to the OS
before its decision is delivered, so it survives a process kill but not
a power loss; ``fsync`` runs only when :meth:`ShardEventLog.rewrite`
rotates a recovered log down to one checkpoint.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, TextIO

from repro.core.assignment import sparcle_assign
from repro.core.network import NCP, Link, Network
from repro.core.placement import CapacityView, Loads
from repro.core.repair import RetryPolicy
from repro.core.scenario import network_to_dict
from repro.core.scheduler import (
    AdmissionProposal,
    Assigner,
    BERequest,
    Decision,
    GRRequest,
    SparcleScheduler,
    evaluate_admission,
)
from repro.core.taskgraph import BANDWIDTH
from repro.exceptions import (
    AdmissionError,
    BackpressureError,
    PlacementError,
    ShardError,
    StaleProposalError,
)
from repro.service.gateway import (
    MAX_DRAIN_EPOCHS,
    AdmissionGateway,
    AdmissionQueue,
    EpochReport,
    PendingAdmission,
    classify_request,
)

if TYPE_CHECKING:
    from repro.service.protocol import DecisionReply, SubmitRequest

#: Flat ``(element, resource, residual)`` override entries (see
#: :class:`~repro.core.network.ResidualSnapshot`).
Entries = tuple[tuple[str, str, float], ...]

#: Per-placement capacity consumptions: one ``(loads, rate)`` per path.
Consumptions = tuple[tuple[Loads, float], ...]

#: Owner key for boundary links in per-owner load splits (no shard owns
#: them; the coordinator's ledger does).
LEDGER = -1


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkPartition:
    """A network split into regions plus the links crossing them.

    ``assignments`` maps every NCP name to its shard id (``0..n-1``);
    ``subnetworks[i]`` is shard *i*'s connected subnetwork (its NCPs and
    the links internal to it); ``boundary_links`` are the global links
    whose endpoints live in different shards — they belong to no
    subnetwork and are reserved exclusively through the coordinator's
    ledger.
    """

    network: Network
    assignments: Mapping[str, int]
    subnetworks: tuple[Network, ...]
    boundary_links: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", dict(self.assignments))

    @property
    def n_shards(self) -> int:
        """Number of regions in this partition."""
        return len(self.subnetworks)

    def shard_of(self, ncp_name: str) -> int:
        """The shard id owning one NCP."""
        try:
            return self.assignments[ncp_name]
        except KeyError:
            raise ShardError(
                f"NCP {ncp_name!r} is not covered by this partition"
            ) from None

    def owner_of(self, element_name: str) -> int:
        """The owner of one element: a shard id, or :data:`LEDGER`.

        NCPs and internal links are owned by their shard; boundary links
        are owned by the coordinator's ledger.
        """
        owner = self.assignments.get(element_name)
        if owner is not None:
            return owner
        if element_name in self.boundary_links:
            return LEDGER
        link = self.network.link(element_name)
        return self.shard_of(link.a)


class _UnionFind:
    """Path-compressed union-find over NCP names (Kruskal helper)."""

    def __init__(self, names: Sequence[str]) -> None:
        self._parent: dict[str, str] = {name: name for name in names}

    def find(self, name: str) -> str:
        """Representative of ``name``'s component."""
        root = name
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[name] != root:
            self._parent[name], name = root, self._parent[name]
        return root

    def union(self, a: str, b: str) -> bool:
        """Merge the components of ``a`` and ``b``; False if already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[rb] = ra
        return True


def _heuristic_zones(network: Network, n_shards: int) -> dict[str, int]:
    """Min-bottleneck-cut zones: cut the narrowest maximum-spanning-tree edges.

    Kruskal builds the maximum spanning tree over link capacity; removing
    the ``n_shards - 1`` smallest tree edges yields connected components
    whose cut edges are the lowest-capacity separators the tree admits —
    cheap, deterministic, and biased exactly the way a cross-region
    reservation protocol wants (boundary links are the scarce ones).
    """
    if not network.is_connected():
        raise ShardError(
            "the min-cut partition heuristic needs a connected network; "
            "supply explicit zones for disconnected topologies"
        )
    forest = _UnionFind(network.ncp_names)
    tree: list[Link] = []
    for link in sorted(network.links, key=lambda l: (-l.bandwidth, l.name)):
        if forest.union(link.a, link.b):
            tree.append(link)
    cuts = {
        link.name
        for link in sorted(tree, key=lambda l: (l.bandwidth, l.name))[
            : n_shards - 1
        ]
    }
    components = _UnionFind(network.ncp_names)
    for link in tree:
        if link.name not in cuts:
            components.union(link.a, link.b)
    groups: dict[str, list[str]] = {}
    for name in network.ncp_names:
        groups.setdefault(components.find(name), []).append(name)
    ordered = sorted(groups.values(), key=lambda members: min(members))
    return {name: index for index, members in enumerate(ordered) for name in members}


def _validated_zones(network: Network, zones: Mapping[str, int]) -> dict[str, int]:
    for name in zones:
        network.ncp(name)  # unknown names raise InvalidNetworkError
    missing = [name for name in network.ncp_names if name not in zones]
    if missing:
        raise ShardError(f"zones do not cover NCPs: {missing}")
    ids = sorted(set(zones.values()))
    if ids != list(range(len(ids))):
        raise ShardError(
            f"zone ids must be contiguous from 0, got {ids}"
        )
    return {name: int(shard) for name, shard in zones.items()}


def partition_network(
    network: Network,
    n_shards: int = 2,
    *,
    zones: Mapping[str, int] | None = None,
) -> NetworkPartition:
    """Partition a network into region subnetworks plus boundary links.

    ``zones`` (NCP name -> shard id, ids contiguous from 0) pins the
    partition explicitly; without it, a deterministic min-bottleneck-cut
    heuristic over link capacity picks ``n_shards`` regions.  Every
    region's subnetwork must be connected — a disconnected region raises
    :class:`~repro.exceptions.ShardError` (re-zone it).
    """
    if zones is not None:
        assignments = _validated_zones(network, zones)
        n_shards = max(assignments.values()) + 1
    else:
        if not 1 <= n_shards <= len(network.ncp_names):
            raise ShardError(
                f"n_shards must be in [1, {len(network.ncp_names)}], "
                f"got {n_shards}"
            )
        assignments = _heuristic_zones(network, n_shards)
    members: list[list[NCP]] = [[] for _ in range(n_shards)]
    for ncp in network.ncps:
        members[assignments[ncp.name]].append(ncp)
    internal: list[list[Link]] = [[] for _ in range(n_shards)]
    boundary: list[str] = []
    for link in network.links:
        owner_a, owner_b = assignments[link.a], assignments[link.b]
        if owner_a == owner_b:
            internal[owner_a].append(link)
        else:
            boundary.append(link.name)
    subnetworks: list[Network] = []
    for shard_id in range(n_shards):
        if not members[shard_id]:
            raise ShardError(f"shard {shard_id} has no NCPs")
        subnet = Network(
            f"{network.name}/shard{shard_id}",
            members[shard_id],
            internal[shard_id],
            directed=network.directed,
        )
        if len(members[shard_id]) > 1 and not subnet.is_connected():
            raise ShardError(
                f"shard {shard_id} subnetwork is disconnected; re-zone it"
            )
        subnetworks.append(subnet)
    return NetworkPartition(
        network=network,
        assignments=assignments,
        subnetworks=tuple(subnetworks),
        boundary_links=tuple(sorted(boundary)),
    )


# ----------------------------------------------------------------------
# Durable event log
# ----------------------------------------------------------------------
def _consumptions_to_json(consumptions: Consumptions) -> list[dict[str, Any]]:
    """The one hold encoder every log record uses.

    Each path's hold is written resource-major with its positive loads
    only, ``{"holds": {resource: {element: load}}, "rate": r}``: a hold
    charges nothing for a load <= 0
    (:class:`~repro.core.placement.CapacityView`), so dropping them
    changes no view.
    """
    encoded: list[dict[str, Any]] = []
    for loads, rate in consumptions:
        holds: dict[str, dict[str, float]] = {}
        for element, bucket in loads.items():
            for resource, load in bucket.items():
                if load > 0.0:
                    holds.setdefault(resource, {})[element] = load
        encoded.append({"holds": holds, "rate": rate})
    return encoded


def _consumptions_from_json(raw: Sequence[Mapping[str, Any]]) -> Consumptions:
    """Decode logged holds; element-major ``"loads"`` (logs written
    before the resource-major codec) read as well."""
    decoded: list[tuple[Loads, float]] = []
    for item in raw:
        loads: dict[str, dict[str, float]] = {}
        if "holds" in item:
            for resource, bucket in item["holds"].items():
                for element, load in bucket.items():
                    loads.setdefault(str(element), {})[str(resource)] = float(load)
        else:
            for element, bucket in item["loads"].items():
                loads[str(element)] = {str(r): float(v) for r, v in bucket.items()}
        decoded.append((loads, float(item["rate"])))
    return tuple(decoded)


def _encode(record: Mapping[str, Any]) -> str:
    """One log line: compact separators, sorted keys (byte-stable)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _is_checkpoint(record: Mapping[str, Any]) -> bool:
    """A record listing every live app: a shard's ``apps``, or the
    coordinator's ``cross_apps``."""
    return "apps" in record or "cross_apps" in record


class ShardEventLog:
    """Append-only JSONL log of one shard's admission/repair events.

    One JSON object per line, each with a monotonically increasing
    ``seq``.  The first record is a *checkpoint* (the live ``apps`` and
    the shard ``network``); the records after it carry decisions, which
    :func:`replay_log` folds into it.  With ``path=None`` the log is
    held in memory (tests, throwaway federations).  With a path, every
    record is flushed to the OS before :meth:`append` returns (it
    survives a process kill, not a power loss), an existing file is
    re-read on open so a restarted process resumes the same log, only
    counts stay in memory — :meth:`records` re-reads the file — and an
    append after :meth:`close` raises :class:`~repro.exceptions.ShardError`.

    A process killed inside a write can leave a half-written final line:
    it is dropped, the file is truncated back to the last complete
    record and :attr:`torn_records` counts it — the event never
    returned from :meth:`append`, so its decision was never delivered.
    An undecodable line anywhere else is corruption and raises
    :class:`~repro.exceptions.ShardError` naming the file and line.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        #: The records of an in-memory log (``None`` when file-backed).
        self._records: list[dict[str, Any]] | None = (
            [] if self._path is None else None
        )
        self._count = 0
        self._since_checkpoint = 0
        self._handle: TextIO | None = None
        #: Half-written final records dropped when the file was opened.
        self.torn_records = 0
        if self._path is not None:
            if self._path.exists():
                self._load(self._path)
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._path, "a", encoding="utf-8")

    def _load(self, path: Path) -> None:
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        last = max(
            (n for n, line in enumerate(lines) if line.strip()), default=-1
        )
        offset = 0
        for number, line in enumerate(lines):
            if line.strip():
                try:
                    record = json.loads(line)
                except ValueError:
                    if number != last:
                        raise ShardError(
                            f"{path}:{number + 1}: undecodable event-log "
                            "record (only a torn final record is dropped)"
                        ) from None
                    self.torn_records = 1
                    os.truncate(path, offset)
                    return
                self._count_record(record)
            offset += len(line) + 1
        if raw and not raw.endswith(b"\n"):
            # The kill fell between a complete record and its newline.
            with open(path, "ab") as handle:
                handle.write(b"\n")

    def _count_record(self, record: Mapping[str, Any]) -> None:
        self._count += 1
        if _is_checkpoint(record):
            self._since_checkpoint = 0
        else:
            self._since_checkpoint += 1

    @property
    def path(self) -> Path | None:
        """Where this log persists, or ``None`` for in-memory logs."""
        return self._path

    @property
    def size_bytes(self) -> int:
        """Bytes this log holds on disk (``0`` when in memory or closed)."""
        if self._handle is None:
            return 0
        return os.fstat(self._handle.fileno()).st_size

    @property
    def records_since_checkpoint(self) -> int:
        """Records after the last one that carries full state.

        What the next recovery has to fold on top of that checkpoint
        (shard logs: a record with ``apps``; the coordinator log: one
        with ``cross_apps``).
        """
        return self._since_checkpoint

    def __len__(self) -> int:
        return self._count

    def append(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Stamp, persist, and return one record."""
        if self._records is None and self._handle is None:
            raise ShardError(f"event log {self._path} is closed")
        stamped: dict[str, Any] = {"seq": self._count, **record}
        self._count_record(stamped)
        if self._records is not None:
            self._records.append(stamped)
        if self._handle is not None:
            self._handle.write(_encode(stamped))
            self._handle.flush()
        return stamped

    def rewrite(self, checkpoint: Mapping[str, Any]) -> dict[str, Any]:
        """Atomically replace the whole log with one checkpoint record.

        The rotation a recovery ends with: ``checkpoint`` must carry
        everything replaying the old records produced, because they are
        gone afterwards.  On disk the record goes to a temporary file
        that is flushed, ``fsync``-ed and renamed over the log, so a
        crash at any point leaves either the old log or the new one —
        both replay to the same state.
        """
        stamped: dict[str, Any] = {"seq": 0, **checkpoint}
        if self._path is not None:
            self.close()
            scratch = self._path.with_name(self._path.name + ".tmp")
            with open(scratch, "w", encoding="utf-8") as handle:
                handle.write(_encode(stamped))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(scratch, self._path)
            self._handle = open(self._path, "a", encoding="utf-8")
        else:
            self._records = [stamped]
        self._count = self._since_checkpoint = 0
        self._count_record(stamped)
        return stamped

    def records(self) -> tuple[dict[str, Any], ...]:
        """Every record appended (or recovered) so far, in order."""
        if self._path is None:
            return tuple(self._records or ())
        return tuple(
            json.loads(line)
            for line in self._path.read_bytes().splitlines()
            if line.strip()
        )

    def close(self) -> None:
        """Release the underlying file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass(frozen=True)
class LiveApp:
    """One application holding capacity on a shard, as its log records it.

    ``origin`` is ``"local"`` for an app the shard admitted itself and
    ``"external"`` for a cross-shard reservation; ``consumed`` is the
    logged per-path holds in their JSON form, in whichever layout they
    were logged (:func:`_consumptions_from_json` reads both).  A local BE
    app holds no capacity (:meth:`holds`): it logs none, and the holds a
    log written with the old FCFS ledger carries for one are kept here as
    logged but never charged.
    """

    app_id: str
    kind: str  # "GR" | "BE"
    origin: str  # "local" | "external"
    consumed: Sequence[Mapping[str, Any]]

    def holds(self) -> Consumptions:
        """What this app holds on its shard's residual: nothing for a
        local BE app, the logged holds for every other app."""
        if self.kind == "BE" and self.origin == "local":
            return ()
        return self.consumptions()

    def consumptions(self) -> Consumptions:
        """The logged holds as ``(loads, rate)`` pairs."""
        return _consumptions_from_json(self.consumed)

    def to_json(self) -> dict[str, Any]:
        """This app as a checkpoint record's ``apps`` entry, its holds
        re-encoded by the current codec."""
        return {
            "app_id": self.app_id,
            "kind": self.kind,
            "origin": self.origin,
            "consumed": _consumptions_to_json(self.consumptions()),
        }


def fold_record(apps: dict[str, LiveApp], record: Mapping[str, Any]) -> None:
    """Apply one log record to a live-app table, live or in recovery.

    A checkpoint (a shard record listing ``apps``, a coordinator record
    listing ``cross_apps``) resets the table to its list; an ``epoch``
    adds its accepted decisions, a ``reserve`` (shard) or ``commit``
    (coordinator) one cross-shard app, and a ``release`` drops one.
    The two logs share no record type, so the step needs no caller.
    Re-adding an app overwrites it in place, so a repeated record (a
    duplicated final write) changes nothing.
    """
    if _is_checkpoint(record):
        apps.clear()
        for raw in record.get("apps", record.get("cross_apps", ())):
            apps[raw["app_id"]] = LiveApp(
                raw["app_id"], raw["kind"], raw.get("origin", "external"),
                raw["consumed"],
            )
        return
    kind = record.get("type")
    if kind == "epoch":
        for decision in record["decisions"]:
            if decision["accepted"]:
                apps[decision["app_id"]] = LiveApp(
                    decision["app_id"], decision["kind"], "local",
                    decision["consumed"],
                )
    elif kind in ("reserve", "commit"):
        apps[record["app_id"]] = LiveApp(
            record["app_id"], record.get("kind", "GR"), "external",
            record["consumed"],
        )
    elif kind == "release":
        apps.pop(record["app_id"], None)


def replay_log(records: Sequence[Mapping[str, Any]]) -> dict[str, LiveApp]:
    """The live-app table a log folds to, keyed by app id.

    :func:`fold_record` over every record — the step a live
    :class:`ShardNode` applies to each record it appends, so the result
    equals the writer's table.  A checkpoint resets the table, so this
    is the fold from the last one.  Whatever else an old record carries
    (a ``delta``, the ``residual`` or ``fcfs`` views, the coordinator's
    ``ledger``) is ignored: :func:`hold_apps` turns the table back into
    capacity.  A log written before checkpoints listed their apps opens
    with a full ``residual`` snapshot instead, and folds the same.

    Raises :class:`~repro.exceptions.ShardError` for an empty log, or
    one that opens with no checkpoint — there is nothing to warm-start
    from.
    """
    if not records:
        raise ShardError("cannot replay an empty shard event log")
    if not (_is_checkpoint(records[0]) or "residual" in records[0]):
        raise ShardError(
            "shard event log opens with no checkpoint record to replay from"
        )
    apps: dict[str, LiveApp] = {}
    for record in records:
        fold_record(apps, record)
    return apps


def hold_apps(scheduler: SparcleScheduler, apps: Iterable[LiveApp]) -> None:
    """Charge each app's logged holds on ``scheduler`` as an opaque tenant.

    The one place a live-app table becomes capacity: every app becomes
    an external reservation of its :meth:`LiveApp.holds` (none for a
    local BE app, which stays known so its id is still rejected as a
    duplicate and can be withdrawn).  Holds are exact integers
    (:class:`~repro.core.placement.CapacityView`), so the views come out
    bit-equal to the ones the table's writer held, whatever the order.
    """
    for app in apps:
        scheduler.reserve_external(app.app_id, app.holds())


# ----------------------------------------------------------------------
# One shard
# ----------------------------------------------------------------------
class ShardNode:
    """One region of the federation: scheduler + gateway + durable log.

    The node's scheduler sees only the region *subnetwork*, so locally
    admitted placements can never touch a boundary link or another
    region's elements by construction.  Every state change appends one
    log record holding the decision, not its consequence: a gateway
    epoch's decisions with the per-path loads of each accepted GR app, a
    cross-shard reservation's loads, a withdrawal's app id.  The node's
    live-app table is :func:`fold_record` applied to each record it
    appends, so it is the fold of its log by construction;
    :meth:`warm_start` folds the log again and holds every live app on a
    fresh scheduler after a :meth:`kill`.
    """

    def __init__(
        self,
        shard_id: int,
        network: Network,
        *,
        assigner: Assigner = sparcle_assign,
        max_queue_depth: int = 128,
        batch_size: int | None = None,
        log: ShardEventLog | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.network = network
        self.log = log if log is not None else ShardEventLog(None)
        self.alive = True
        self._assigner = assigner
        self._max_queue_depth = max_queue_depth
        self._batch_size = batch_size
        #: Every app holding capacity here: the fold of the log.
        self._apps: dict[str, LiveApp] = {}
        self.scheduler: SparcleScheduler
        self.gateway: AdmissionGateway
        self._build()
        #: True when the log held records from an earlier process at open
        #: time — the signal :meth:`recover` keys off.
        self._preexisting = len(self.log) > 0
        if not self._preexisting:
            self._append(self._stamp({"type": "snapshot"}))

    def _build(self) -> None:
        self.scheduler = SparcleScheduler(self.network, assigner=self._assigner)
        self.gateway = AdmissionGateway(
            self.scheduler,
            max_queue_depth=self._max_queue_depth,
            batch_size=self._batch_size,
        )

    # ------------------------------------------------------------------
    def _append(self, record: Mapping[str, Any]) -> None:
        """Log one record and fold it into the live-app table."""
        fold_record(self._apps, self.log.append(record))

    def _stamp(self, record: dict[str, Any]) -> dict[str, Any]:
        """Make ``record`` a checkpoint: the live-app table and network.

        Replaying it alone restores everything the log before it held.
        """
        record["apps"] = [app.to_json() for app in self._apps.values()]
        record["network"] = network_to_dict(self.network)
        return record

    def _require_alive(self) -> None:
        if not self.alive:
            raise ShardError(f"shard {self.shard_id} is down")

    def residual_entries(self) -> Entries:
        """The live residual overrides (bit-exact comparison handle)."""
        return self.scheduler.residual_snapshot().entries

    def live_apps(self) -> dict[str, LiveApp]:
        """The live-app table: every app holding capacity here (admitted,
        reserved or adopted), keyed by id — a copy."""
        return dict(self._apps)

    def consumption_ledger(self) -> dict[str, Consumptions]:
        """Every reservation this shard's residual accounts for, as logged.

        Keys are the live apps' ids: locally admitted apps and cross-shard
        reservations, adopted or not.  A local BE app holds nothing here.
        The invariant checker re-derives the expected residual from this.
        """
        return {app_id: app.holds() for app_id, app in self._apps.items()}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, request: BERequest | GRRequest) -> int:
        """Enqueue one arrival on this shard's gateway (ticket returned)."""
        self._require_alive()
        return self.gateway.submit(request)

    def run_epoch(self) -> EpochReport:
        """Run one gateway epoch, log its decisions and hand them over.

        The report's ``decided`` pairs are the only copy left: the
        gateway's tickets are retired once the epoch record is logged.
        """
        self._require_alive()
        report = self.gateway.run_epoch()
        if report.decided:
            self._log_decisions(report.decided)
            for ticket, _ in report.decided:
                self.gateway.retire(ticket)
        return report

    def _log_decisions(
        self, decided: Sequence[tuple[int, Decision]]
    ) -> None:
        payload: list[dict[str, Any]] = []
        for _, decision in decided:
            consumed: Consumptions = ()
            if decision.accepted and decision.kind == "GR":
                loads = [placement.loads() for placement in decision.placements]
                consumed = tuple(zip(loads, decision.path_rates))
            payload.append(
                {
                    "app_id": decision.app_id,
                    "kind": decision.kind,
                    "accepted": decision.accepted,
                    "reason": decision.reason,
                    "path_rates": list(decision.path_rates),
                    "consumed": _consumptions_to_json(consumed),
                }
            )
        self._append(
            {"type": "epoch", "epoch": self.gateway.epoch, "decisions": payload}
        )

    def apply_external(self, app_id: str, consumptions: Consumptions) -> None:
        """Reserve capacity for a cross-shard app (coordinator phase 2)."""
        self._require_alive()
        self.scheduler.reserve_external(app_id, consumptions)
        self._append(
            {
                "type": "reserve",
                "app_id": app_id,
                "consumed": _consumptions_to_json(consumptions),
            }
        )

    def withdraw(self, app_id: str) -> None:
        """Release one app's reservations (local, adopted, or external)."""
        self._require_alive()
        self.scheduler.withdraw(app_id)
        self._append({"type": "release", "app_id": app_id})

    # ------------------------------------------------------------------
    # Failure / warm start
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Crash this shard: queued requests are lost, the log survives."""
        self._require_alive()
        self.alive = False

    def _restore(self) -> None:
        """Rebuild the scheduler from the log: every live app adopted.

        Raises :class:`~repro.exceptions.ShardError` when the log's last
        checkpoint names another network than this shard's region (a log
        directory recovered with another shard count or scenario): its
        holds would land on the wrong elements.
        """
        records = self.log.records()
        checkpoint = next(
            (record for record in reversed(records) if _is_checkpoint(record)),
            {},
        )
        logged = checkpoint.get("network")
        if logged is not None and logged != network_to_dict(self.network):
            raise ShardError(
                f"shard {self.shard_id}'s event log was written for another "
                "network than this shard's region; recover it with the "
                "scenario and shard count that wrote it"
            )
        self._apps = replay_log(records)
        self._build()
        hold_apps(self.scheduler, self._apps.values())
        self.alive = True

    def warm_start(self) -> None:
        """Restart from the event log instead of re-solving admission.

        Folds the log (:func:`replay_log`) into its live-app table and
        adopts each app on a fresh scheduler (:func:`hold_apps`) — its
        holds charged again, so the views come out bit-equal; duplicate
        ids stay rejected and withdrawal still works — then appends a
        ``restart`` checkpoint.
        Raises :class:`~repro.exceptions.ShardError` if the shard is
        still alive or the log is empty.
        """
        if self.alive:
            raise ShardError(f"shard {self.shard_id} is not down")
        self._restore()
        self._append(self._stamp({"type": "restart"}))

    def recover(self) -> bool:
        """Warm-start from a log written by an earlier process, if any.

        A fresh process that reopens a durable :class:`ShardEventLog`
        sees the previous incarnation's records but starts with an empty
        scheduler; this replays them (exactly like :meth:`warm_start`
        after an in-process :meth:`kill`) so the shard resumes with every
        reservation re-held before accepting traffic, then compacts the
        log to the one checkpoint that state amounts to
        (:meth:`ShardEventLog.rewrite`) — a log stays O(live state +
        churn since the last process start).  Returns ``True`` when a
        replay happened, ``False`` when the log was fresh and the node
        is already in its initial state.
        """
        if not self._preexisting:
            return False
        self._restore()
        checkpoint = self.log.rewrite(self._stamp({"type": "checkpoint"}))
        fold_record(self._apps, checkpoint)
        return True

    def adopted_externals(self) -> tuple[str, ...]:
        """Live cross-shard reservations (after a restart: the adopted ones)."""
        return tuple(
            app.app_id for app in self._apps.values() if app.origin == "external"
        )

    def close(self) -> None:
        """Release the log handle."""
        self.log.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TicketRef:
    """A coordinator ticket whose request is still queued."""

    ticket: int
    app_id: str


@dataclass(frozen=True)
class _CrossApp:
    """A committed cross-shard application and its per-owner reservations."""

    app_id: str
    kind: str
    per_owner: tuple[tuple[int, Consumptions], ...]

    def ledger_consumptions(self) -> Consumptions:
        """The boundary-link part of this app's reservations."""
        for owner, consumptions in self.per_owner:
            if owner == LEDGER:
                return consumptions
        return ()

    def to_json(self) -> dict[str, Any]:
        """This app as the coordinator log records it.

        Only the boundary-link part is logged: the per-shard parts are
        in the shard logs and re-read from the recovered schedulers.
        """
        return {
            "app_id": self.app_id,
            "kind": self.kind,
            "consumed": _consumptions_to_json(self.ledger_consumptions()),
        }


@dataclass(frozen=True)
class FederationEpochReport:
    """What one :meth:`ShardCoordinator.run_epoch` call did.

    ``decided`` holds the epoch's ``(ticket, Decision)`` pairs, keyed by
    coordinator ticket: each live shard's in shard order, then the
    cross-shard lane's, each in commit order.
    """

    epoch: int
    shard_reports: tuple[tuple[int, EpochReport], ...]
    cross_batch: int
    cross_committed: int
    cross_accepted: int
    cross_rejected: int
    cross_conflicts: int
    cross_serial_fallbacks: int
    queue_depth: int
    decided: tuple[tuple[int, Decision], ...]


@dataclass(frozen=True)
class FederationStats:
    """Running totals over a federation's lifetime (restart-safe)."""

    submitted: int
    cross_submitted: int
    committed: int
    accepted: int
    rejected: int
    cross_conflicts: int
    cross_serial_fallbacks: int
    shards_alive: int
    lost_on_kill: int


class ShardCoordinator:
    """Federated admission over a partitioned network.

    Submits whose pinned hosts all live in one region go straight to that
    region's gateway; unpinned submits round-robin over live regions;
    submits whose pins span regions enter the coordinator's cross-shard
    queue and are admitted by the two-phase reserve/commit protocol
    described in the module docstring.  ``cross_retry_policy`` is the
    cross-shard conflict budget (a default
    :class:`~repro.core.repair.RetryPolicy` when omitted; backoff is
    measured in coordinator epochs); the per-shard gateways cannot
    conflict and take none.

    With ``n_shards=1`` the single region subnetwork *is* the global
    network and no request can cross a boundary, so the federation is
    decision-identical to one :class:`AdmissionGateway` with the same
    parameters — the property test pins this down bit-for-bit.

    Use as a context manager (or call :meth:`close`) to release the log
    handles.
    """

    def __init__(
        self,
        network: Network,
        *,
        n_shards: int = 2,
        zones: Mapping[str, int] | None = None,
        partition: NetworkPartition | None = None,
        assigner: Assigner = sparcle_assign,
        max_queue_depth: int = 128,
        batch_size: int | None = None,
        cross_retry_policy: RetryPolicy | None = None,
        log_dir: str | Path | None = None,
    ) -> None:
        self.network = network
        if partition is None:
            partition = partition_network(network, n_shards, zones=zones)
        elif partition.network is not network:
            raise ShardError("partition was built for a different network")
        self.partition = partition
        self._assigner = assigner
        self._max_queue_depth = max_queue_depth
        base = Path(log_dir) if log_dir is not None else None
        self._log = ShardEventLog(
            base / "coordinator.jsonl" if base is not None else None
        )
        self._nodes: list[ShardNode] = []
        for shard_id, subnet in enumerate(partition.subnetworks):
            self._nodes.append(
                ShardNode(
                    shard_id,
                    subnet,
                    assigner=assigner,
                    max_queue_depth=max_queue_depth,
                    batch_size=batch_size,
                    log=ShardEventLog(
                        base / f"shard-{shard_id}.jsonl"
                        if base is not None
                        else None
                    ),
                )
            )
        self._owner_cache: dict[str, int] = {
            name: partition.owner_of(name)
            for name in network.element_names()
        }
        self._ledger = CapacityView(network)
        self._apps: dict[str, _CrossApp] = {}
        self._cross_queue = AdmissionQueue(cross_retry_policy)
        # A ticket lives in ``_queued`` (keyed by its owner — shard id or
        # LEDGER — and that lane's own ticket) until an epoch decides it,
        # then in ``_decided`` until :meth:`retire`.
        self._queued: dict[tuple[int, int], _TicketRef] = {}
        self._decided: dict[int, Decision] = {}
        self._all_ids: set[str] = set()
        self._seq = 0
        self._epoch = 0
        self._rr = 0
        self._submitted = 0
        self._cross_submitted = 0
        self._committed = 0
        self._accepted = 0
        self._rejected = 0
        self._cross_conflicts = 0
        self._cross_fallbacks = 0
        self._lost_on_kill = 0
        #: True when the coordinator log held records from an earlier
        #: process at open time — the signal :meth:`recover` keys off.
        self._log_preexisted = len(self._log) > 0
        if not self._log_preexisted:
            self._log.append(self._checkpoint("snapshot"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Release every shard's log and the coordinator log."""
        for node in self._nodes:
            node.close()
        self._log.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[ShardNode, ...]:
        """The region nodes, indexed by shard id."""
        return tuple(self._nodes)

    @property
    def epoch(self) -> int:
        """Coordinator epochs run so far."""
        return self._epoch

    @property
    def decisions_held(self) -> int:
        """Decided tickets not yet retired, here and in every gateway."""
        return len(self._decided) + sum(
            node.gateway.decisions_held for node in self._nodes
        )

    @property
    def queue_depth(self) -> int:
        """Requests waiting anywhere: live shard queues + cross queue."""
        depth = len(self._cross_queue)
        for node in self._nodes:
            if node.alive:
                depth += node.gateway.queue_depth
        return depth

    @property
    def stats(self) -> FederationStats:
        """A restart-safe snapshot of the federation's running totals."""
        return FederationStats(
            submitted=self._submitted,
            cross_submitted=self._cross_submitted,
            committed=self._committed,
            accepted=self._accepted,
            rejected=self._rejected,
            cross_conflicts=self._cross_conflicts,
            cross_serial_fallbacks=self._cross_fallbacks,
            shards_alive=sum(1 for node in self._nodes if node.alive),
            lost_on_kill=self._lost_on_kill,
        )

    def ledger_entries(self) -> Entries:
        """The boundary-link ledger's residual overrides."""
        return self._ledger.freeze().entries

    def event_logs(self) -> dict[str, ShardEventLog]:
        """Every event log of the federation, keyed like its file stem.

        ``shard-0`` ... per region plus ``coordinator`` — the label set
        the ``shard.log_*`` series on ``/metrics`` use.
        """
        logs = {f"shard-{node.shard_id}": node.log for node in self._nodes}
        logs["coordinator"] = self._log
        return logs

    def _checkpoint(self, kind: str) -> dict[str, Any]:
        """A self-contained coordinator record: the live cross-shard apps."""
        return {
            "type": kind,
            "cross_apps": [app.to_json() for app in self._apps.values()],
        }

    def decision_for(self, ticket: int) -> Decision | None:
        """The decision for one :meth:`submit` ticket, if reached yet.

        A non-destructive read.  ``None`` while the request is still
        queued, once the ticket is retired (:meth:`retire`), and forever
        if the owning shard was killed before deciding it (the request
        was lost with the crash).
        """
        return self._decided.get(ticket)

    def retire(self, ticket: int) -> None:
        """Forget a decided ticket: its consumer has taken the decision.

        The coordinator is the only layer still holding a decision once
        its epoch is over, so after this nothing does.  Raises
        :class:`~repro.exceptions.ShardError` when no decision is held
        for ``ticket``.
        """
        if self._decided.pop(ticket, None) is None:
            raise ShardError(f"no decision held for ticket {ticket}")

    def decision_reply(self, ticket: int) -> "DecisionReply | None":
        """The wire-typed decision for one ticket, if reached yet.

        :meth:`decision_for` rendered through the versioned protocol —
        the form the serving front-end pushes to network clients.
        """
        from repro.service.protocol import DecisionReply

        decision = self.decision_for(ticket)
        if decision is None:
            return None
        return DecisionReply.from_decision(decision, seq=ticket)

    def residual_state(self) -> dict[str, Entries]:
        """Per-shard residual overrides plus the boundary ledger.

        Keys are ``"shard0"`` ... plus ``"ledger"`` — the comparison
        handle the warm-start and conservation tests use.
        """
        state: dict[str, Entries] = {
            f"shard{node.shard_id}": node.residual_entries()
            for node in self._nodes
        }
        state["ledger"] = self.ledger_entries()
        return state

    # ------------------------------------------------------------------
    # Arrival side
    # ------------------------------------------------------------------
    def _route(self, request: BERequest | GRRequest) -> int:
        """The owning shard id, or :data:`LEDGER` for cross-region pins."""
        shards = {
            self.partition.shard_of(ct.pinned_host)
            for ct in request.graph.cts
            if ct.pinned_host is not None
        }
        if len(shards) == 1:
            return shards.pop()
        if not shards:
            alive = [node.shard_id for node in self._nodes if node.alive]
            if not alive:
                raise ShardError("no live shard to route to")
            choice = alive[self._rr % len(alive)]
            self._rr += 1
            return choice
        return LEDGER

    def submit(
        self, request: "BERequest | GRRequest | SubmitRequest"
    ) -> int:
        """Route one arrival; returns a ticket for :meth:`decision_for`.

        Accepts the in-process request dataclasses and the wire-typed
        :class:`~repro.service.protocol.SubmitRequest` (converted via
        ``to_request()``), so network and in-process callers share one
        entry point.  Raises :class:`~repro.exceptions.AdmissionError`
        for duplicate app ids anywhere in the federation,
        :class:`~repro.exceptions.BackpressureError` when the owning
        queue is full, and :class:`~repro.exceptions.ShardError` when
        every pin lands on a killed shard.
        """
        from repro.service.protocol import SubmitRequest

        if isinstance(request, SubmitRequest):
            request = request.to_request()
        kind, weight = classify_request(request)
        app_id = request.app_id
        if app_id in self._all_ids:
            raise AdmissionError(
                f"app id {app_id!r} already queued or admitted"
            )
        home = self._route(request)
        if home == LEDGER:
            if len(self._cross_queue) >= self._max_queue_depth:
                raise BackpressureError(
                    f"cross-shard queue full ({self._max_queue_depth}); "
                    f"request {app_id!r} shed"
                )
            key = (LEDGER, self._cross_queue.push(request, kind, weight).seq)
            self._cross_submitted += 1
        else:
            node = self._nodes[home]
            if not node.alive:
                raise ShardError(
                    f"request {app_id!r} is pinned to killed shard {home}"
                )
            key = (home, node.submit(request))
        ticket = self._seq
        self._seq += 1
        self._queued[key] = _TicketRef(ticket, app_id)
        self._all_ids.add(app_id)
        self._submitted += 1
        return ticket

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------
    def run_epoch(self) -> FederationEpochReport:
        """Run one epoch on every live shard, then the cross-shard batch."""
        self._epoch += 1
        shard_reports: list[tuple[int, EpochReport]] = []
        decided: list[tuple[int, Decision]] = []
        for node in self._nodes:
            if node.alive:
                report = node.run_epoch()
                shard_reports.append((node.shard_id, report))
                for local, decision in report.decided:
                    decided.append(self._absorb(node.shard_id, local, decision))
        batch, committed, accepted, rejected, conflicts, fallbacks = (
            self._run_cross_epoch(decided)
        )
        return FederationEpochReport(
            epoch=self._epoch,
            shard_reports=tuple(shard_reports),
            cross_batch=batch,
            cross_committed=committed,
            cross_accepted=accepted,
            cross_rejected=rejected,
            cross_conflicts=conflicts,
            cross_serial_fallbacks=fallbacks,
            queue_depth=self.queue_depth,
            decided=tuple(decided),
        )

    def _absorb(
        self, owner: int, local: int, decision: Decision
    ) -> tuple[int, Decision]:
        """Move one lane's decision under its coordinator ticket."""
        ticket = self._queued.pop((owner, local)).ticket
        self._decided[ticket] = decision
        self._committed += 1
        if decision.accepted:
            self._accepted += 1
        else:
            self._rejected += 1
            # A rejected id may be resubmitted, like on a bare gateway.
            self._all_ids.discard(decision.app_id)
        return ticket, decision

    def _merged_entries(self) -> list[tuple[str, str, float]]:
        """The phase-1 merged residual basis over the global network.

        Live shards contribute their frozen residual overrides; dead
        shards contribute zeros for every element they own (nothing can
        be placed into a crashed region); the boundary ledger contributes
        its overrides, with boundary links into dead regions zeroed last.
        """
        entries: list[tuple[str, str, float]] = []
        for node in self._nodes:
            if node.alive:
                entries.extend(node.residual_entries())
            else:
                for ncp in node.network.ncps:
                    for resource in ncp.capacities:
                        entries.append((ncp.name, resource, 0.0))
                for link in node.network.links:
                    entries.append((link.name, BANDWIDTH, 0.0))
        entries.extend(self._ledger.freeze().entries)
        for name in self.partition.boundary_links:
            link = self.network.link(name)
            owner_a = self.partition.shard_of(link.a)
            owner_b = self.partition.shard_of(link.b)
            if not (self._nodes[owner_a].alive and self._nodes[owner_b].alive):
                entries.append((name, BANDWIDTH, 0.0))
        return entries

    def _thaw_merged(
        self, entries: Sequence[tuple[str, str, float]]
    ) -> CapacityView:
        view = CapacityView(self.network)
        for element, resource, value in entries:
            view.override(element, resource, value)
        return view

    def _split_loads(
        self, proposal: AdmissionProposal
    ) -> dict[int, list[tuple[Loads, float]]]:
        """Partition a proposal's loads by owner (shards + ledger)."""
        per_owner: dict[int, list[tuple[Loads, float]]] = {}
        for placement, rate in zip(proposal.placements, proposal.path_rates):
            split: dict[int, Loads] = {}
            for element, bucket in placement.loads().items():
                owner = self._owner_cache[element]
                split.setdefault(owner, {})[element] = dict(bucket)
            for owner, loads in split.items():
                per_owner.setdefault(owner, []).append((loads, rate))
        return per_owner

    def _commit_cross(
        self, request: BERequest | GRRequest, proposal: AdmissionProposal
    ) -> Decision:
        """Phase 2: optimistic revalidation, then per-owner reservation."""
        app_id = request.app_id
        working = self._thaw_merged(self._merged_entries())
        try:
            working.reserve(
                (placement.loads(), rate)
                for placement, rate in zip(
                    proposal.placements, proposal.path_rates
                )
            )
        except PlacementError as error:
            raise StaleProposalError(
                f"cross-shard proposal for {app_id!r} no longer fits the "
                f"live residuals: {error}"
            ) from error
        per_owner = self._split_loads(proposal)
        applied: list[int] = []
        try:
            for owner, consumptions in per_owner.items():
                if owner == LEDGER:
                    continue
                self._nodes[owner].apply_external(
                    app_id, tuple(consumptions)
                )
                applied.append(owner)
            self._ledger.reserve(per_owner.get(LEDGER, []))
        except PlacementError as error:
            for owner in applied:
                self._nodes[owner].withdraw(app_id)
            raise StaleProposalError(
                f"cross-shard reservation for {app_id!r} aborted at an "
                f"owner: {error}"
            ) from error
        self._apps[app_id] = _CrossApp(
            app_id=app_id,
            kind=proposal.kind,
            per_owner=tuple(
                (owner, tuple(consumptions))
                for owner, consumptions in per_owner.items()
            ),
        )
        self._log.append({"type": "commit", **self._apps[app_id].to_json()})
        return Decision(
            app_id,
            proposal.kind,
            True,
            proposal.placements,
            proposal.path_rates,
            proposal.availability,
        )

    def _serial_cross(self, entry: PendingAdmission) -> Decision:
        """Global serial fallback: evaluate+commit against live state."""
        self._cross_fallbacks += 1
        view = self._thaw_merged(self._merged_entries())
        proposal = evaluate_admission(
            entry.request, self.network, view, assigner=self._assigner
        )
        if not proposal.accepted:
            return Decision(
                entry.request.app_id, entry.kind, False, reason=proposal.reason
            )
        return self._commit_cross(entry.request, proposal)

    def _run_cross_epoch(
        self, decided: list[tuple[int, Decision]]
    ) -> tuple[int, int, int, int, int, int]:
        eligible = self._cross_queue.pop_batch(self._epoch)
        committed = accepted = rejected = conflicts = fallbacks = 0
        if not eligible:
            return (0, 0, 0, 0, 0, 0)
        basis = self._merged_entries()
        proposals = [
            evaluate_admission(
                entry.request,
                self.network,
                self._thaw_merged(basis),
                assigner=self._assigner,
            )
            for entry in eligible
        ]
        for entry, proposal in zip(eligible, proposals):
            if not proposal.accepted:
                # Capacity only shrinks between the phase-1 snapshot and
                # phase 2, so a snapshot-time reject is final.
                decision = Decision(
                    entry.request.app_id,
                    entry.kind,
                    False,
                    reason=proposal.reason,
                )
            else:
                try:
                    decision = self._commit_cross(entry.request, proposal)
                except StaleProposalError:
                    self._cross_conflicts += 1
                    conflicts += 1
                    if self._cross_queue.requeue(entry, self._epoch):
                        continue
                    decision = self._serial_cross(entry)
                    fallbacks += 1
            committed += 1
            if decision.accepted:
                accepted += 1
            else:
                rejected += 1
            decided.append(self._absorb(LEDGER, entry.seq, decision))
        return (
            len(eligible),
            committed,
            accepted,
            rejected,
            conflicts,
            fallbacks,
        )

    # ------------------------------------------------------------------
    # Convenience drivers
    # ------------------------------------------------------------------
    def drain(self) -> list[FederationEpochReport]:
        """Run epochs until every queue is empty; returns the reports."""
        reports: list[FederationEpochReport] = []
        for _ in range(MAX_DRAIN_EPOCHS):
            if self.queue_depth == 0:
                return reports
            reports.append(self.run_epoch())
        raise ShardError(
            f"drain did not converge within {MAX_DRAIN_EPOCHS} epochs "
            f"({self.queue_depth} requests still queued)"
        )

    def process(
        self, requests: Sequence[BERequest | GRRequest]
    ) -> list[Decision | None]:
        """Submit a burst and drain it; decisions in submission order.

        The returned decisions are handed over: their tickets are retired.
        ``None`` marks a request lost with a killed shard.
        """
        tickets = [self.submit(request) for request in requests]
        self.drain()
        return [self._decided.pop(ticket, None) for ticket in tickets]

    # ------------------------------------------------------------------
    # Lifecycle: departures and shard failures
    # ------------------------------------------------------------------
    def withdraw(self, app_id: str) -> None:
        """Release one application's reservations, wherever they live."""
        app = self._apps.pop(app_id, None)
        if app is not None:
            for owner, _ in app.per_owner:
                if owner == LEDGER:
                    continue
                node = self._nodes[owner]
                if node.alive:
                    node.withdraw(app_id)
                # A dead owner's log keeps the reservation; the restart
                # path reconciles it against the coordinator's app table.
            for loads, rate in app.ledger_consumptions():
                self._ledger.release(loads, rate)
            self._log.append({"type": "release", "app_id": app_id})
            self._all_ids.discard(app_id)
            return
        for node in self._nodes:
            if node.alive and node.scheduler.has_app(app_id):
                node.withdraw(app_id)
                self._all_ids.discard(app_id)
                return
        raise AdmissionError(f"no admitted app {app_id!r} to withdraw")

    def kill_shard(self, shard_id: int) -> int:
        """Crash one shard; returns how many queued requests were lost."""
        node = self._node(shard_id)
        lost = [key for key in self._queued if key[0] == shard_id]
        for key in lost:
            self._all_ids.discard(self._queued.pop(key).app_id)
        node.kill()
        self._lost_on_kill += len(lost)
        self._log.append(
            {"type": "shard_kill", "shard": shard_id, "lost": len(lost)}
        )
        return len(lost)

    def restart_shard(self, shard_id: int) -> None:
        """Warm-start one killed shard from its event log.

        After the replay, adopted cross-shard reservations are reconciled
        against the coordinator's live app table: reservations whose app
        was withdrawn globally while the shard was down are released.
        """
        node = self._node(shard_id)
        node.warm_start()
        self._release_stale_externals(node)
        self._log.append({"type": "shard_restart", "shard": shard_id})

    def _release_stale_externals(self, node: ShardNode) -> None:
        """Release a restarted shard's cross-shard reservations whose app
        was withdrawn globally while it was down."""
        for app_id in node.adopted_externals():
            if app_id not in self._apps:
                node.withdraw(app_id)

    def recover(self) -> int:
        """Warm-start the whole federation from pre-existing event logs.

        Call once, right after constructing a coordinator over the same
        ``log_dir`` a previous (crashed) process wrote, **before**
        submitting any traffic.  Every shard replays its own log
        (:meth:`ShardNode.recover`), then the coordinator log is replayed
        to rebuild the cross-shard app table, the boundary ledger, and
        the global duplicate-id set — so every reservation the crashed
        process committed stays held and every admitted app id stays
        rejected as a duplicate.  Queued-but-undecided requests are not
        recovered (the logs are decision logs, not arrival logs);
        clients resubmit them.  Each replayed log is then compacted to
        one checkpoint record, file by file: a crash between two
        compactions leaves every file individually replayable.

        Returns the number of live applications recovered; ``0`` when
        the logs were fresh and there was nothing to replay.
        """
        for node in self._nodes:
            node.recover()
        if not self._log_preexisted:
            return 0
        # The coordinator log folds like a shard log: each live app's
        # logged holds are its boundary-link part.
        self._apps = {}
        for app_id, app in replay_log(self._log.records()).items():
            boundary = app.consumptions()
            per_owner = [(LEDGER, boundary)] if boundary else []
            per_owner += [
                (node.shard_id, node.scheduler.external_consumptions(app_id))
                for node in self._nodes
                if app_id in node.scheduler.external_tags()
            ]
            self._apps[app_id] = _CrossApp(app_id, app.kind, tuple(per_owner))
        # A crashed process may have withdrawn a cross-shard app while an
        # owner was down and died before restarting it.
        for node in self._nodes:
            self._release_stale_externals(node)
        self._all_ids = set(self._apps)
        for node in self._nodes:
            self._all_ids.update(node.live_apps())
        self._ledger = CapacityView(self.network)
        for app in self._apps.values():
            for loads, rate in app.ledger_consumptions():
                self._ledger.consume(loads, rate)
        self._log.rewrite(self._checkpoint("recover"))
        return len(self._all_ids)

    def _node(self, shard_id: int) -> ShardNode:
        if not 0 <= shard_id < len(self._nodes):
            raise ShardError(f"no shard {shard_id}")
        return self._nodes[shard_id]

    def cross_apps(self) -> Iterator[tuple[str, tuple[tuple[int, Consumptions], ...]]]:
        """Live cross-shard apps and their per-owner reservations."""
        for app in self._apps.values():
            yield app.app_id, app.per_owner
