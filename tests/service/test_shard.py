"""Unit tests for the sharded control plane (``repro.service.shard``).

Organized bottom-up: partitioning, the durable event log and its replay,
the scheduler's external-reservation plumbing the shards are built on,
single-shard node lifecycle, and finally the coordinator's two-phase
cross-shard protocol — abort/re-queue on :class:`StaleProposalError`,
the serial fallback after the retry budget, boundary-ledger conservation
on withdraw, and bit-for-bit warm starts after a shard kill.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest

from repro.core.network import fully_connected_network, star_network
from repro.core.repair import RetryPolicy
from repro.core.scenario import load_scenario, network_from_dict
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import BANDWIDTH, CPU, linear_task_graph
from repro.exceptions import (
    AdmissionError,
    BackpressureError,
    PlacementError,
    ShardError,
)
from repro.service.shard import (
    LEDGER,
    LiveApp,
    NetworkPartition,
    ShardCoordinator,
    ShardEventLog,
    ShardNode,
    hold_apps,
    partition_network,
    replay_log,
)

TOLERANCE = 1e-9


def _gr(app_id: str, src: str, dst: str, *, min_rate: float,
        cpu: float = 300.0, megabits: float = 1.0) -> GRRequest:
    graph = linear_task_graph(
        2, cpu_per_ct=cpu, megabits_per_tt=megabits
    ).with_pins({"source": src, "sink": dst}, name=app_id)
    return GRRequest(app_id, graph, min_rate=min_rate, max_paths=2)


def _be(app_id: str, src: str, dst: str, *, priority: float = 1.0) -> BERequest:
    graph = linear_task_graph(
        2, cpu_per_ct=300.0, megabits_per_tt=1.0
    ).with_pins({"source": src, "sink": dst}, name=app_id)
    return BERequest(app_id, graph, priority=priority)


def _two_ncp_world(link_bandwidth: float = 10.0):
    """Two NCPs, one link — the link is the sole boundary link."""
    network = fully_connected_network(
        2, cpu=20000.0, link_bandwidth=link_bandwidth
    )
    zones = {"ncp1": 0, "ncp2": 1}
    return network, zones


def _clique_world(n: int = 8, n_shards: int = 2):
    network = fully_connected_network(n, cpu=30000.0, link_bandwidth=50.0)
    per = n // n_shards
    zones = {f"ncp{k + 1}": k // per for k in range(n)}
    return network, zones


def _restored_residual(records, network):
    """The residual a fresh scheduler holds once a log's live apps are
    charged on it — what a warm start restores."""
    scheduler = SparcleScheduler(network)
    hold_apps(scheduler, replay_log(records).values())
    return scheduler.residual_snapshot().entries


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartitionNetwork:
    def test_explicit_zones_split_the_clique(self):
        network, zones = _clique_world(8, 2)
        partition = partition_network(network, zones=zones)
        assert partition.n_shards == 2
        assert sorted(len(s.ncp_names) for s in partition.subnetworks) == [4, 4]
        # 4x4 cross pairs on an 8-clique.
        assert len(partition.boundary_links) == 16
        for subnet in partition.subnetworks:
            assert subnet.is_connected()

    def test_heuristic_is_deterministic_and_connected(self):
        network = star_network(6, hub_cpu=9000.0, leaf_cpu=4000.0,
                               link_bandwidth=20.0)
        first = partition_network(network, 3)
        second = partition_network(network, 3)
        assert first.assignments == second.assignments
        assert sorted(first.assignments.values()) is not None
        assert set(first.assignments.values()) == {0, 1, 2}
        for subnet in first.subnetworks:
            if len(subnet.ncp_names) > 1:
                assert subnet.is_connected()

    def test_owner_of_routes_every_element_kind(self):
        network, zones = _clique_world(4, 2)
        partition = partition_network(network, zones=zones)
        assert partition.owner_of("ncp1") == 0
        assert partition.owner_of("ncp3") == 1
        boundary = partition.boundary_links[0]
        assert partition.owner_of(boundary) == LEDGER
        internal = [
            link.name for link in network.links
            if link.name not in partition.boundary_links
        ]
        assert partition.owner_of(internal[0]) in (0, 1)

    def test_zone_validation_errors(self):
        network, zones = _clique_world(4, 2)
        with pytest.raises(ShardError, match="do not cover"):
            partition_network(
                network, zones={"ncp1": 0, "ncp2": 0, "ncp3": 1}
            )
        with pytest.raises(ShardError, match="contiguous"):
            partition_network(
                network,
                zones={"ncp1": 0, "ncp2": 0, "ncp3": 2, "ncp4": 2},
            )
        with pytest.raises(ShardError, match="n_shards"):
            partition_network(network, 0)
        with pytest.raises(ShardError, match="n_shards"):
            partition_network(network, 5)

    def test_disconnected_zone_is_rejected(self):
        # Star leaves only connect through the hub: a zone holding two
        # leaves but not the hub has no internal links.
        network = star_network(4, hub_cpu=9000.0, leaf_cpu=4000.0,
                               link_bandwidth=20.0)
        leaves_apart = {"hub": 0, "ncp1": 0, "ncp2": 0, "ncp3": 1, "ncp4": 1}
        with pytest.raises(ShardError, match="disconnected"):
            partition_network(network, zones=leaves_apart)

    def test_shard_of_unknown_ncp(self):
        network, zones = _clique_world(4, 2)
        partition = partition_network(network, zones=zones)
        with pytest.raises(ShardError, match="not covered"):
            partition.shard_of("nowhere")


# ----------------------------------------------------------------------
# Event log + replay
# ----------------------------------------------------------------------
class TestShardEventLog:
    def test_in_memory_append_stamps_sequence(self):
        log = ShardEventLog()
        log.append({"type": "epoch", "decisions": []})
        log.append({"type": "release", "app_id": "a"})
        assert [r["seq"] for r in log.records()] == [0, 1]
        assert log.path is None

    def test_file_log_persists_and_recovers(self, tmp_path):
        path = tmp_path / "logs" / "shard-0.jsonl"
        log = ShardEventLog(path)
        log.append({"type": "reserve", "app_id": "x", "consumed": []})
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["app_id"] == "x"
        # Reopening resumes the same log, seq continuing where it left off.
        reopened = ShardEventLog(path)
        reopened.append({"type": "release", "app_id": "x"})
        assert [r["seq"] for r in reopened.records()] == [0, 1]
        reopened.close()
        assert len(path.read_text().splitlines()) == 2

    def test_append_after_close_raises_and_writes_nothing(self, tmp_path):
        path = tmp_path / "shard-0.jsonl"
        log = ShardEventLog(path)
        log.append({"type": "release", "app_id": "a"})
        log.close()
        with pytest.raises(ShardError, match="closed"):
            log.append({"type": "release", "app_id": "b"})
        assert len(log) == 1
        assert len(path.read_text().splitlines()) == 1

    def test_replay_empty_log_raises(self):
        with pytest.raises(ShardError, match="empty"):
            replay_log([])

    def test_replay_tracks_live_apps_and_last_residual(self):
        records = [
            {
                "type": "epoch",
                "decisions": [
                    {"app_id": "keep", "kind": "GR", "accepted": True,
                     "consumed": [{"loads": {"l1": {BANDWIDTH: 1.0}},
                                   "rate": 2.0}]},
                    {"app_id": "no", "kind": "GR", "accepted": False,
                     "consumed": []},
                ],
                "residual": [["l1", BANDWIDTH, 8.0]],
                "fcfs": [],
            },
            {"type": "reserve", "app_id": "ext", "kind": "GR",
             "consumed": [{"loads": {"l1": {BANDWIDTH: 0.5}}, "rate": 1.0}],
             "residual": [["l1", BANDWIDTH, 7.5]], "fcfs": []},
            {"type": "release", "app_id": "keep",
             "residual": [["l1", BANDWIDTH, 9.5]], "fcfs": []},
        ]
        # A log written before checkpoints listed their apps folds from
        # its first record; the views it carries are not read.
        apps = replay_log(records)
        assert list(apps) == ["ext"]
        assert apps["ext"].origin == "external"
        assert apps["ext"].consumptions()[0][1] == 1.0
        network = fully_connected_network(2, cpu=1000.0, link_bandwidth=10.0)
        assert _restored_residual(records, network) == (
            ("l1", BANDWIDTH, 9.5),
        )

    def test_replay_without_a_checkpoint_raises(self):
        with pytest.raises(ShardError, match="no checkpoint"):
            replay_log([{"type": "release", "app_id": "a",
                         "delta": {"residual": {}, "fcfs": {}}}])

    def test_replay_ignores_logged_views(self):
        held = [{"loads": {"l1": {BANDWIDTH: 1.0}}, "rate": 0.5}]
        records = [
            {"type": "snapshot", "apps": [
                {"app_id": "old", "kind": "GR", "origin": "local",
                 "consumed": held}],
             "residual": [["l1", BANDWIDTH, 1.0]]},
            {"type": "restart", "apps": [
                {"app_id": "gone", "kind": "GR", "origin": "external",
                 "consumed": held},
                {"app_id": "b", "kind": "BE", "origin": "local",
                 "consumed": []}],
             "residual": [["l1", BANDWIDTH, 2.0]],
             "fcfs": [["l1", BANDWIDTH, 3.0]]},
            {"type": "release", "app_id": "gone",
             "delta": {"residual": {"l1": {BANDWIDTH: 7.5}},
                       "fcfs": {"l1": {}}}},
        ]
        apps = replay_log(records)
        assert [app.to_json() for app in apps.values()] == [
            {"app_id": "b", "kind": "BE", "origin": "local", "consumed": []},
        ]
        assert apps["b"].holds() == ()
        # The holds are the only reader: the views the records carry
        # (9.0, 8.0, 7.5) are never assigned.
        network = fully_connected_network(2, cpu=1000.0, link_bandwidth=10.0)
        assert _restored_residual(records, network) == ()
        # A record applied twice (a duplicated final write, same seq)
        # changes nothing.
        assert replay_log(records + [records[-1]]) == apps

    def test_torn_final_record_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "shard-0.jsonl"
        log = ShardEventLog(path)
        log.append({"type": "snapshot", "residual": [], "fcfs": [],
                    "apps": []})
        log.append({"type": "release", "app_id": "a",
                    "delta": {"residual": {}, "fcfs": {}}})
        log.close()
        whole = path.read_bytes()
        # A SIGKILL inside the next write leaves half a record behind.
        path.write_bytes(whole + b'{"seq": 2, "type": "epoch", "decis')
        reopened = ShardEventLog(path)
        assert reopened.torn_records == 1
        assert [r["seq"] for r in reopened.records()] == [0, 1]
        assert path.read_bytes() == whole
        assert reopened.size_bytes == len(whole)
        # The next append lands on its own line with the next seq.
        reopened.append({"type": "release", "app_id": "b",
                         "delta": {"residual": {}, "fcfs": {}}})
        reopened.close()
        again = ShardEventLog(path)
        assert again.torn_records == 0
        assert [r["seq"] for r in again.records()] == [0, 1, 2]
        again.close()

    def test_complete_final_record_missing_its_newline_is_kept(self, tmp_path):
        path = tmp_path / "shard-0.jsonl"
        path.write_bytes(b'{"seq": 0, "type": "snapshot", "residual": [], '
                         b'"fcfs": [], "apps": []}')
        log = ShardEventLog(path)
        assert log.torn_records == 0 and len(log) == 1
        log.append({"type": "release", "app_id": "a",
                    "delta": {"residual": {}, "fcfs": {}}})
        log.close()
        assert len(path.read_text().splitlines()) == 2

    def test_undecodable_record_before_the_end_names_file_and_line(
        self, tmp_path
    ):
        path = tmp_path / "shard-0.jsonl"
        path.write_text(
            '{"seq": 0, "type": "snapshot", "residual": [], "fcfs": []}\n'
            '{"seq": 1, "type": "rele\n'
            '{"seq": 2, "type": "release", "app_id": "a"}\n'
        )
        with pytest.raises(ShardError, match=r"shard-0\.jsonl:2"):
            ShardEventLog(path)
        # Corruption is reported, never repaired.
        assert len(path.read_text().splitlines()) == 3

    def test_duplicated_final_seq_opens_and_replays_the_same(self, tmp_path):
        path = tmp_path / "shard-0.jsonl"
        log = ShardEventLog(path)
        log.append({"type": "snapshot", "apps": [], "fcfs": [],
                    "residual": [["l1", BANDWIDTH, 9.0]]})
        log.append({"type": "release", "app_id": "a",
                    "delta": {"residual": {"l1": {BANDWIDTH: 9.5}},
                              "fcfs": {"l1": {}}}})
        log.close()
        expected = replay_log(ShardEventLog(path).records())
        last = path.read_text().splitlines()[-1]
        with open(path, "a") as handle:
            handle.write(last + "\n")
        doubled = ShardEventLog(path)
        assert [r["seq"] for r in doubled.records()] == [0, 1, 1]
        assert replay_log(doubled.records()) == expected
        doubled.close()

    def test_holds_are_logged_resource_major_in_compact_records(
        self, tmp_path
    ):
        network = fully_connected_network(2, cpu=1000.0, link_bandwidth=10.0)
        path = tmp_path / "shard-0.jsonl"
        node = ShardNode(0, network, log=ShardEventLog(path))
        held = (({"l1": {BANDWIDTH: 2.0}, "ncp1": {CPU: 300.0},
                  "ncp2": {}}, 0.5),)
        node.apply_external("x", held)
        live = node.residual_entries()
        node.close()
        lines = path.read_text().splitlines()
        for line in lines:
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )
        logged = json.loads(lines[-1])["consumed"]
        assert logged == [{"holds": {BANDWIDTH: {"l1": 2.0},
                                     CPU: {"ncp1": 300.0}},
                           "rate": 0.5}]
        # The element-major layout earlier versions wrote reads as the
        # same holds and restores the same view.
        element_major = [{"loads": {"l1": {BANDWIDTH: 2.0},
                                    "ncp1": {CPU: 300.0}, "ncp2": {}},
                          "rate": 0.5}]
        for consumed in (logged, element_major):
            app = LiveApp("x", "GR", "external", consumed)
            assert _positive(app.consumptions()) == _positive(held)
            scheduler = SparcleScheduler(network)
            hold_apps(scheduler, [app])
            assert scheduler.residual_snapshot().entries == live

    def test_every_cut_of_a_log_reopens_to_its_whole_record_prefix(
        self, tmp_path
    ):
        """A kill can cut a log anywhere: at a record boundary, inside a
        record, or between a record and its newline.  Each cut reopens to
        the records written whole, and they fold to the table (and
        restore the residual) the writer had after the last of them."""
        network = fully_connected_network(3, cpu=2000.0, link_bandwidth=10.0)
        path = tmp_path / "shard-0.jsonl"
        node = ShardNode(0, network, log=ShardEventLog(path))
        states = [(node.live_apps(), node.residual_entries())]

        def step(action):
            action()
            assert len(node.log) == len(states) + 1
            states.append((node.live_apps(), node.residual_entries()))

        def admit(request):
            node.submit(request)
            node.run_epoch()

        step(lambda: admit(_gr("g", "ncp1", "ncp2", min_rate=0.5)))
        step(lambda: node.apply_external(
            "x", (({"l3": {BANDWIDTH: 1.0}, "ncp3": {CPU: 100.0}}, 2.0),)
        ))
        step(lambda: admit(_be("b", "ncp2", "ncp3")))
        step(lambda: node.withdraw("g"))
        node.close()
        whole = path.read_bytes()
        ends = [n + 1 for n, byte in enumerate(whole) if byte == ord("\n")]
        starts = [0] + ends[:-1]
        assert len(ends) == len(states) == 5

        def reopen(cut: int, torn: int, kept: int) -> None:
            path.write_bytes(whole[:cut])
            log = ShardEventLog(path)
            try:
                assert log.torn_records == torn
                records = log.records()
                assert len(records) == kept
                assert path.read_bytes() == whole[: ends[kept - 1] if kept else 0]
                if kept:
                    apps, residual = states[kept - 1]
                    assert replay_log(records) == apps
                    assert _restored_residual(records, network) == residual
            finally:
                log.close()

        for index, (start, end) in enumerate(zip(starts, ends)):
            reopen(start, 0, index)  # at the boundary before the record
            reopen(start + 1, 1, index)  # one byte into the record
            reopen(end - 1, 0, index + 1)  # whole, but for its newline
        reopen(len(whole), 0, len(ends))
        # A damaged record that is not the last one is corruption.
        for index, (start, end) in enumerate(zip(starts[:-1], ends[:-1])):
            path.write_bytes(whole[: start + 1] + whole[end - 1:])
            with pytest.raises(
                ShardError, match=rf"shard-0\.jsonl:{index + 1}:"
            ):
                ShardEventLog(path)

    def test_rewrite_replaces_the_log_with_one_checkpoint(self, tmp_path):
        path = tmp_path / "shard-0.jsonl"
        log = ShardEventLog(path)
        for index in range(5):
            log.append({"type": "release", "app_id": f"a{index}"})
        assert log.records_since_checkpoint == 5
        stamped = log.rewrite({"type": "checkpoint", "residual": [],
                               "fcfs": [], "apps": []})
        assert stamped["seq"] == 0
        assert len(log) == 1 and log.records_since_checkpoint == 0
        assert log.size_bytes == path.stat().st_size
        assert not list(tmp_path.glob("*.tmp"))
        # Appends continue on the rotated file.
        log.append({"type": "release", "app_id": "later"})
        log.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]
        # In-memory logs compact the same way.
        memory = ShardEventLog()
        memory.append({"type": "release", "app_id": "x"})
        memory.rewrite({"type": "checkpoint", "residual": [], "fcfs": [],
                        "apps": []})
        assert [r["type"] for r in memory.records()] == ["checkpoint"]


    def test_file_log_memory_does_not_grow_with_appends(self, tmp_path):
        record = {"type": "epoch", "epoch": 1, "decisions": [
            {"app_id": "app", "kind": "GR", "accepted": True, "reason": "",
             "path_rates": [1.0], "consumed": [
                 {"loads": {"l1": {BANDWIDTH: 1.0}}, "rate": 1.0}]}]}
        log = ShardEventLog(tmp_path / "shard-0.jsonl")
        tracemalloc.start()
        try:
            for _ in range(1000):
                log.append(record)
            at_1000 = tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                log.append(record)
            at_2000 = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            log.close()
        assert len(log) == 2000 and log.records_since_checkpoint == 2000
        assert at_2000 - at_1000 < 16 * 1024
        # The records are on disk, and read back from there.
        assert [r["seq"] for r in log.records()] == list(range(2000))

    def test_counts_are_rebuilt_when_a_file_is_reopened(self, tmp_path):
        path = tmp_path / "shard-0.jsonl"
        log = ShardEventLog(path)
        log.append({"type": "release", "app_id": "a"})
        log.append({"type": "snapshot", "residual": [], "apps": []})
        log.append({"type": "release", "app_id": "b"})
        log.close()
        reopened = ShardEventLog(path)
        assert len(reopened) == 3
        assert reopened.records_since_checkpoint == 1
        reopened.close()

    def test_duplicated_final_redo_record_is_redone_once(self, tmp_path):
        network, zones = _clique_world(4, 1)
        with ShardCoordinator(network, zones=zones, log_dir=tmp_path) as fed:
            fed.process([_gr("g", "ncp1", "ncp2", min_rate=0.5)])
            live = fed.nodes[0].residual_entries()
        path = tmp_path / "shard-0.jsonl"
        last = path.read_text().splitlines()[-1]
        with open(path, "a") as handle:
            handle.write(last + "\n")
        doubled = ShardEventLog(path)
        assert [r["seq"] for r in doubled.records()] == [0, 1, 1]
        # A consumption redone twice would charge the app twice.
        assert _restored_residual(doubled.records(), network) == live
        doubled.close()

    def test_a_redo_log_replays_on_the_network_it_names(self):
        network, zones = _clique_world(4, 1)
        with ShardCoordinator(network, zones=zones) as fed:
            fed.process([_gr("g", "ncp1", "ncp2", min_rate=0.5)])
            node = fed.nodes[0]
            records = [dict(r) for r in node.log.records()]
            live = node.residual_entries()
        named = network_from_dict(records[0]["network"])
        assert _restored_residual(records, named) == live
        # The fold itself needs no network.
        apps = replay_log(records)
        del records[0]["network"]
        assert replay_log(records) == apps


# ----------------------------------------------------------------------
# What a shard log record holds
# ----------------------------------------------------------------------
#: Record types that carry full state (see ``ShardNode._stamp``).
CHECKPOINTS = ("snapshot", "restart", "checkpoint")


class TestRecordShape:
    """A record holds the decision, not its consequence."""

    def _scripted_run(self, n_shards: int):
        network, zones = _clique_world(8, n_shards)
        with ShardCoordinator(
            network, zones=zones, max_queue_depth=64
        ) as fed:
            burst = [
                _gr("g0", "ncp1", "ncp2", min_rate=0.5),
                _be("b0", "ncp2", "ncp3"),
                _gr("g1", "ncp5", "ncp6", min_rate=0.5),
                _be("b1", "ncp6", "ncp7", priority=2.0),
                _gr("x0", "ncp1", "ncp5", min_rate=0.5),
                _be("x1", "ncp4", "ncp8"),
            ]
            decisions = dict(zip([r.app_id for r in burst],
                                 fed.process(burst)))
            for app_id in ("g0", "b0", "x0"):
                fed.withdraw(app_id)
            fed.kill_shard(0)
            fed.restart_shard(0)
            later = [_gr("g2", "ncp2", "ncp3", min_rate=0.5),
                     _be("b2", "ncp3", "ncp4")]
            decisions.update(zip(["g2", "b2"], fed.process(later)))
            fed.withdraw("b2")
            assert all(d is not None and d.accepted
                       for d in decisions.values())
            return decisions, [
                _json(node.log.records()) for node in fed.nodes
            ]

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_records_carry_decisions_not_consequences(self, n_shards):
        decisions, logs = self._scripted_run(n_shards)
        releases = be_checked = 0
        for records in logs:
            for record in records:
                if record["type"] in CHECKPOINTS:
                    continue
                assert not {"residual", "delta", "fcfs"} & set(record)
                if record["type"] == "release":
                    assert set(record) == {"seq", "type", "app_id"}
                    releases += 1
                for logged in record.get("decisions", ()):
                    if not logged["accepted"]:
                        continue
                    # An accepted GR app logs its holds; a BE app none.
                    decision = decisions[logged["app_id"]]
                    held = [] if logged["kind"] == "BE" else [
                        (p.loads(), rate)
                        for p, rate in zip(
                            decision.placements, decision.path_rates
                        )
                    ]
                    logged_app = LiveApp(
                        logged["app_id"], logged["kind"], "local",
                        logged["consumed"],
                    )
                    assert _positive(logged_app.consumptions()) == (
                        _positive(held)
                    )
                    be_checked += logged["kind"] == "BE"
        assert releases >= 3 and be_checked >= 2


def _json(value):
    return json.loads(json.dumps(value, sort_keys=True))


def _positive(consumptions):
    """Holds as ``({(element, resource): load}, rate)``, positive loads only:
    what a :class:`~repro.core.placement.CapacityView` charges."""
    return [
        ({(element, resource): load
          for element, bucket in loads.items()
          for resource, load in bucket.items() if load > 0.0}, rate)
        for loads, rate in consumptions
    ]


# ----------------------------------------------------------------------
# Scheduler external-reservation plumbing
# ----------------------------------------------------------------------
class TestExternalReservations:
    def _scheduler(self):
        network = fully_connected_network(2, cpu=10000.0, link_bandwidth=10.0)
        return network, SparcleScheduler(network)

    def test_reserve_charges_and_withdraw_releases(self):
        network, scheduler = self._scheduler()
        link = network.links[0].name
        loads = ({link: {BANDWIDTH: 1.0}}, 4.0)
        scheduler.reserve_external("ext", (loads,))
        assert scheduler.external_tags() == ("ext",)
        residual = dict(
            (e[:2], e[2]) for e in scheduler.residual_snapshot().entries
        )
        assert residual[(link, BANDWIDTH)] == pytest.approx(6.0)
        scheduler.withdraw("ext")
        assert scheduler.external_tags() == ()

    def test_state_changes_report_the_elements_they_touched(self):
        network, scheduler = self._scheduler()
        link = network.links[0].name
        loads = ({link: {BANDWIDTH: 1.0}}, 4.0)
        assert scheduler.reserve_external("ext", (loads,)) == {link}
        assert scheduler.residual_snapshot().entries == (
            (link, BANDWIDTH, 6.0),
        )
        assert scheduler.withdraw("ext") == {link}
        gr = scheduler.submit_gr(_gr("g", "ncp1", "ncp2", min_rate=0.5))
        assert gr.accepted
        # A BE app is charged to no view.
        before = scheduler.residual_snapshot()
        be = scheduler.submit_be(_be("b", "ncp1", "ncp2"))
        assert be.accepted
        assert scheduler.residual_snapshot() == before
        assert scheduler.withdraw("b") == frozenset()
        assert scheduler.withdraw("g") == {
            element for p in gr.placements for element in p.loads()
        }

    def test_overcommit_is_atomic(self):
        network, scheduler = self._scheduler()
        link = network.links[0].name
        too_big = ({link: {BANDWIDTH: 1.0}}, 11.0)
        with pytest.raises(PlacementError):
            scheduler.reserve_external("huge", (too_big,))
        assert scheduler.external_tags() == ()
        assert scheduler.residual_snapshot().entries == ()

    def test_duplicate_tag_rejected_and_uncharged_registration(self):
        network, scheduler = self._scheduler()
        link = network.links[0].name
        loads = ({link: {BANDWIDTH: 1.0}}, 2.0)
        scheduler.reserve_external("ext", (loads,))
        before = scheduler.residual_snapshot()
        with pytest.raises(AdmissionError, match="already"):
            scheduler.reserve_external("ext", (loads,))
        assert scheduler.residual_snapshot() == before
        # A warm-started local BE app registers without a charge.
        scheduler.reserve_external("ghost", ())
        assert scheduler.residual_snapshot() == before
        assert "ghost" in scheduler.app_ids()
        with pytest.raises(AdmissionError, match="already"):
            scheduler.reserve_external("ghost", (loads,))

    def test_restore_residual_round_trips(self):
        network, scheduler = self._scheduler()
        link = network.links[0].name
        external = (({link: {BANDWIDTH: 1.0}}, 3.0),)
        scheduler.reserve_external("ext", external)
        be = scheduler.submit_be(_be("b", "ncp1", "ncp2"))
        assert be.accepted
        frozen = scheduler.residual_snapshot()
        # A warm start holds each live app with its logged holds: the
        # external's, and nothing for the local BE app.
        fresh = SparcleScheduler(network)
        hold_apps(fresh, [
            LiveApp("b", "BE", "local", []),
            LiveApp("ext", "GR", "external",
                    [{"holds": {BANDWIDTH: {link: 1.0}}, "rate": 3.0}]),
        ])
        assert fresh.residual_snapshot() == frozen
        assert fresh.app_ids() == ("b", "ext")
        # Withdrawing the warm-started BE app hands nothing back.
        assert fresh.withdraw("b") == frozenset()
        assert fresh.residual_snapshot() == frozen
        assert fresh.app_ids() == ("ext",)


# ----------------------------------------------------------------------
# Coordinator: routing, queues, intra-shard decisions
# ----------------------------------------------------------------------
class TestCoordinatorRouting:
    def test_pinned_requests_route_to_owner_and_duplicates_rejected(self):
        network, zones = _clique_world(8, 2)
        with ShardCoordinator(network, zones=zones) as coordinator:
            ticket = coordinator.submit(_gr("a", "ncp1", "ncp2", min_rate=0.5))
            with pytest.raises(AdmissionError, match="already"):
                coordinator.submit(_gr("a", "ncp1", "ncp2", min_rate=0.5))
            coordinator.drain()
            decision = coordinator.decision_for(ticket)
            assert decision is not None and decision.accepted
            # ncp1/ncp2 both live in shard 0.
            assert coordinator.nodes[0].scheduler.has_app("a")
            assert not coordinator.nodes[1].scheduler.has_app("a")

    def test_rejected_app_id_can_be_resubmitted(self):
        network, zones = _two_ncp_world(link_bandwidth=10.0)
        with ShardCoordinator(network, zones=zones) as coordinator:
            (decision,) = coordinator.process(
                [_gr("big", "ncp1", "ncp2", min_rate=100.0)]
            )
            assert not decision.accepted
            # The id is free again, exactly like a bare gateway.
            (decision,) = coordinator.process(
                [_gr("big", "ncp1", "ncp2", min_rate=1.0)]
            )
            assert decision.accepted

    def test_cross_queue_backpressure(self):
        network, zones = _two_ncp_world()
        with ShardCoordinator(
            network, zones=zones, max_queue_depth=1
        ) as coordinator:
            coordinator.submit(_gr("a", "ncp1", "ncp2", min_rate=0.5))
            with pytest.raises(BackpressureError):
                coordinator.submit(_gr("b", "ncp1", "ncp2", min_rate=0.5))

    def test_cross_and_local_lanes_share_one_queue(self):
        # Same kind, priority and arrival slot on either lane -> same
        # sort key; only the cross lane ever requeues, under its policy.
        network, zones = _clique_world(4, 2)
        policy = RetryPolicy(max_attempts=4, backoff_base=2.0)
        with ShardCoordinator(
            network, zones=zones, cross_retry_policy=policy
        ) as coordinator:
            coordinator.submit(_be("local", "ncp1", "ncp2", priority=2.0))
            coordinator.submit(_be("cross", "ncp1", "ncp3", priority=2.0))
            local_queue = coordinator.nodes[0].gateway._queue
            cross_queue = coordinator._cross_queue
            assert type(local_queue) is type(cross_queue)
            (local,) = local_queue.pop_batch(epoch=0)
            (cross,) = cross_queue.pop_batch(epoch=0)
            assert (local.request.app_id, cross.request.app_id) == (
                "local", "cross",
            )
            assert local.sort_key() == cross.sort_key()
            for attempt in (1, 2):
                assert cross_queue.requeue(cross, 5)
                expected = 5 + 1 + int(policy.delay(attempt))
                assert cross.not_before_epoch == expected
                assert cross_queue.pop_batch(epoch=expected - 1) == []
                assert cross_queue.pop_batch(epoch=expected) == [cross]


# ----------------------------------------------------------------------
# Coordinator: two-phase cross-shard protocol
# ----------------------------------------------------------------------
class TestCrossShardTwoPhase:
    def test_cross_commit_reserves_on_both_shards_and_ledger(self):
        network, zones = _two_ncp_world()
        with ShardCoordinator(network, zones=zones) as coordinator:
            ticket = coordinator.submit(_gr("x", "ncp1", "ncp2", min_rate=2.0))
            coordinator.drain()
            decision = coordinator.decision_for(ticket)
            assert decision is not None and decision.accepted
            assert coordinator.stats.cross_submitted == 1
            # Both shard schedulers hold an external reservation for it.
            for node in coordinator.nodes:
                assert "x" in node.scheduler.external_tags()
            # The boundary link's ledger shows the admitted rate consumed.
            link = network.links[0].name
            entries = {
                (e, r): v for e, r, v in coordinator.ledger_entries()
            }
            assert entries[(link, BANDWIDTH)] == pytest.approx(
                10.0 - sum(decision.path_rates)
            )

    def test_withdraw_cross_app_empties_the_ledger(self):
        network, zones = _two_ncp_world()
        with ShardCoordinator(network, zones=zones) as coordinator:
            coordinator.submit(_gr("x", "ncp1", "ncp2", min_rate=2.0))
            coordinator.drain()
            coordinator.withdraw("x")
            assert coordinator.ledger_entries() == ()
            for node in coordinator.nodes:
                assert "x" not in node.scheduler.external_tags()
            with pytest.raises(AdmissionError, match="no admitted"):
                coordinator.withdraw("x")

    def test_conflicting_batch_aborts_and_requeues(self):
        # Both GRs fit the frozen basis alone but not together: the second
        # commit must hit StaleProposalError, re-queue, and lose.
        network, zones = _two_ncp_world(link_bandwidth=10.0)
        with ShardCoordinator(network, zones=zones) as coordinator:
            decisions = coordinator.process([
                _gr("one", "ncp1", "ncp2", min_rate=6.0),
                _gr("two", "ncp1", "ncp2", min_rate=6.0),
            ])
            stats = coordinator.stats
            assert stats.cross_conflicts >= 1
            accepted = [d for d in decisions if d.accepted]
            rejected = [d for d in decisions if not d.accepted]
            assert len(accepted) == 1 and len(rejected) == 1
            # No double-booking: the ledger residual stays non-negative.
            for _e, _r, value in coordinator.ledger_entries():
                assert value >= -TOLERANCE

    def test_retry_budget_exhaustion_falls_back_to_serial(self):
        network, zones = _two_ncp_world(link_bandwidth=10.0)
        with ShardCoordinator(
            network, zones=zones,
            cross_retry_policy=RetryPolicy(max_attempts=1, backoff_base=0.0),
        ) as coordinator:
            coordinator.submit(_gr("one", "ncp1", "ncp2", min_rate=6.0))
            coordinator.submit(_gr("two", "ncp1", "ncp2", min_rate=6.0))
            coordinator.drain()
            stats = coordinator.stats
            assert stats.cross_serial_fallbacks >= 1
            assert stats.accepted == 1 and stats.rejected == 1

    def test_cross_be_is_admitted_and_pinned(self):
        network, zones = _two_ncp_world()
        with ShardCoordinator(network, zones=zones) as coordinator:
            ticket = coordinator.submit(_be("be", "ncp1", "ncp2"))
            coordinator.drain()
            decision = coordinator.decision_for(ticket)
            assert decision is not None and decision.accepted
            assert decision.kind == "BE"
            for node in coordinator.nodes:
                assert "be" in node.scheduler.external_tags()


# ----------------------------------------------------------------------
# Coordinator: failure and warm starts
# ----------------------------------------------------------------------
class TestKillAndWarmStart:
    def _loaded_coordinator(self, log_dir=None):
        network, zones = _clique_world(8, 2)
        coordinator = ShardCoordinator(
            network, zones=zones, max_queue_depth=64, log_dir=log_dir
        )
        requests = [
            _gr("g0", "ncp1", "ncp2", min_rate=0.4),
            _gr("g1", "ncp5", "ncp6", min_rate=0.4),
            _gr("cross0", "ncp1", "ncp5", min_rate=0.3),
            _be("b0", "ncp2", "ncp3"),
            _be("cross1", "ncp4", "ncp8"),
        ]
        for request in requests:
            coordinator.submit(request)
        coordinator.drain()
        return network, coordinator

    def test_warm_start_is_bit_for_bit(self, tmp_path):
        _network, coordinator = self._loaded_coordinator(tmp_path)
        with coordinator:
            before = coordinator.residual_state()
            assert coordinator.kill_shard(0) == 0
            assert not coordinator.nodes[0].alive
            coordinator.restart_shard(0)
            assert coordinator.nodes[0].alive
            assert coordinator.residual_state() == before
            # The durable logs exist on disk, one line per record.
            assert (tmp_path / "shard-0.jsonl").exists()
            assert (tmp_path / "coordinator.jsonl").exists()

    def test_live_apps_are_the_same_across_a_kill_and_restart(self):
        _network, coordinator = self._loaded_coordinator()
        with coordinator:
            before = [node.live_apps() for node in coordinator.nodes]
            # A cross-shard reservation counts on every shard it holds.
            for apps in before:
                assert {"cross0", "cross1"} <= set(apps)
            for node in coordinator.nodes:
                coordinator.kill_shard(node.shard_id)
                coordinator.restart_shard(node.shard_id)
            assert [node.live_apps() for node in coordinator.nodes] == before
            for node in coordinator.nodes:
                assert replay_log(node.log.records()) == node.live_apps()

    def test_multipath_cross_reserve_survives_warm_start(self, tmp_path):
        # Two paths give each owner a multi-entry reservation: a reserve
        # left out of the log on that path alone must not go unseen.
        network, zones = _clique_world(8, 2)
        coordinator = ShardCoordinator(network, zones=zones, log_dir=tmp_path)
        with coordinator:
            ticket = coordinator.submit(
                _gr("wide", "ncp1", "ncp5", min_rate=2.0, megabits=40.0)
            )
            coordinator.drain()
            assert len(coordinator.decision_for(ticket).path_rates) == 2
            before = coordinator.residual_state()
            for shard in (0, 1):
                coordinator.kill_shard(shard)
                coordinator.restart_shard(shard)
            assert coordinator.residual_state() == before

    def test_warm_started_shard_keeps_admitting(self, tmp_path):
        _network, coordinator = self._loaded_coordinator(tmp_path)
        with coordinator:
            coordinator.kill_shard(0)
            coordinator.restart_shard(0)
            ticket = coordinator.submit(
                _gr("late", "ncp1", "ncp3", min_rate=0.2)
            )
            coordinator.drain()
            decision = coordinator.decision_for(ticket)
            assert decision is not None and decision.accepted
            # Duplicate ids stay rejected across the restart.
            with pytest.raises(AdmissionError, match="already"):
                coordinator.submit(_gr("g0", "ncp1", "ncp2", min_rate=0.1))

    def test_a_restarted_shard_aliases_no_lost_ticket(self):
        # Regression: tickets pointed into the shard's gateway by its own
        # numbering, which restarts at 0 with the restarted gateway, so a
        # lost ticket read a later request's decision and a second kill
        # counted the first kill's losses again.
        network, zones = _clique_world(8, 2)
        with ShardCoordinator(network, zones=zones) as coordinator:
            lost = [
                coordinator.submit(_gr(app_id, "ncp1", "ncp2", min_rate=0.2))
                for app_id in ("a", "b")
            ]
            assert coordinator.kill_shard(0) == 2
            coordinator.restart_shard(0)
            (decision,) = coordinator.process(
                [_gr("c", "ncp1", "ncp2", min_rate=0.2)]
            )
            assert decision.app_id == "c"
            assert [coordinator.decision_for(t) for t in lost] == [None, None]
            assert coordinator.kill_shard(0) == 0
            assert coordinator.stats.lost_on_kill == 2

    def test_kill_loses_queued_requests_and_blocks_pins(self):
        network, zones = _clique_world(8, 2)
        with ShardCoordinator(network, zones=zones) as coordinator:
            ticket = coordinator.submit(
                _gr("pending", "ncp1", "ncp2", min_rate=0.2)
            )
            lost = coordinator.kill_shard(0)
            assert lost == 1
            assert coordinator.stats.lost_on_kill == 1
            assert coordinator.decision_for(ticket) is None
            with pytest.raises(ShardError, match="killed shard"):
                coordinator.submit(_gr("next", "ncp1", "ncp2", min_rate=0.2))
            # The lost id is free again (the request was never decided).
            coordinator.restart_shard(0)
            (decision,) = coordinator.process(
                [_gr("pending", "ncp1", "ncp2", min_rate=0.2)]
            )
            assert decision.accepted

    def test_withdraw_while_owner_down_reconciles_on_restart(self, tmp_path):
        _network, coordinator = self._loaded_coordinator(tmp_path)
        with coordinator:
            coordinator.kill_shard(0)
            # cross0 holds reservations on shards 0 (down) and 1 (live).
            coordinator.withdraw("cross0")
            assert "cross0" not in coordinator.nodes[1].scheduler.external_tags()
            coordinator.restart_shard(0)
            # The stale reservation replayed from shard 0's log was
            # released against the coordinator's app table.
            assert "cross0" not in coordinator.nodes[0].scheduler.external_tags()

    def test_recover_compacts_every_log_to_one_checkpoint(self, tmp_path):
        network, coordinator = self._loaded_coordinator(tmp_path)
        zones = dict(coordinator.partition.assignments)
        with coordinator:
            coordinator.withdraw("g1")
            # Churn: a redo record is smaller than the state it implies,
            # so a log outgrows the checkpoint it compacts to only once
            # apps come and go.
            for index, (src, dst) in enumerate([("ncp1", "ncp2"),
                                                ("ncp5", "ncp6")] * 3):
                app_id = f"churn{index}"
                (decision,) = coordinator.process(
                    [_gr(app_id, src, dst, min_rate=0.1)]
                )
                assert decision is not None and decision.accepted
                coordinator.withdraw(app_id)
            before = coordinator.residual_state()
            held = [
                sorted(node.consumption_ledger())
                for node in coordinator.nodes
            ]
            cross = sorted(app_id for app_id, _ in coordinator.cross_apps())
            replayed = [
                replay_log(node.log.records()) for node in coordinator.nodes
            ]
        sizes = {p.name: p.stat().st_size for p in tmp_path.glob("*.jsonl")}

        def reopen():
            return ShardCoordinator(
                network, zones=zones, max_queue_depth=64, log_dir=tmp_path
            )

        with reopen() as second:
            recovered = second.recover()
            assert second.residual_state() == before
            assert [
                sorted(node.consumption_ledger()) for node in second.nodes
            ] == held
            assert sorted(a for a, _ in second.cross_apps()) == cross
            for label, log in second.event_logs().items():
                assert len(log) == 1, label
                assert log.records_since_checkpoint == 0
                assert log.size_bytes < sizes[f"{label}.jsonl"]
            for node, state in zip(second.nodes, replayed):
                assert replay_log(node.log.records()) == state
            assert not list(tmp_path.glob("*.tmp"))
            # The compacted federation keeps working and keeps logging.
            second.withdraw("cross0")
            after = second.residual_state()
        # A third process replays checkpoint + churn to the same state.
        with reopen() as third:
            assert third.recover() == recovered - 1
            assert third.residual_state() == after
            assert "cross0" not in [a for a, _ in third.cross_apps()]

    def test_recover_survives_a_crash_between_two_compactions(self, tmp_path):
        network, coordinator = self._loaded_coordinator(tmp_path)
        zones = dict(coordinator.partition.assignments)
        with coordinator:
            before = coordinator.residual_state()
        old = {p.name: p.read_bytes() for p in tmp_path.glob("*.jsonl")}
        with ShardCoordinator(
            network, zones=zones, max_queue_depth=64, log_dir=tmp_path
        ) as second:
            recovered = second.recover()
        # Only shard 0 got compacted before the crash: put the other
        # files back as the first process left them.
        for name, content in old.items():
            if name != "shard-0.jsonl":
                (tmp_path / name).write_bytes(content)
        with ShardCoordinator(
            network, zones=zones, max_queue_depth=64, log_dir=tmp_path
        ) as third:
            assert third.recover() == recovered
            assert third.residual_state() == before

    def test_recover_refuses_a_log_written_for_another_region(
        self, tmp_path
    ):
        """A four-shard log directory recovered as two shards would hold
        shard 0's logged apps on another region's elements."""
        network = load_scenario(
            Path(__file__).resolve().parents[1] / "data"
            / "smoke_scenario.json"
        ).network
        with ShardCoordinator(network, n_shards=4, log_dir=tmp_path) as fed:
            decisions = fed.process([
                _gr(f"g{k}", src, dst, min_rate=0.5)
                for k, (src, dst) in enumerate(
                    [("ncp1", "ncp2"), ("ncp3", "ncp4"), ("ncp5", "ncp6")]
                )
            ])
            assert any(d is not None and d.accepted for d in decisions)
            live = fed.residual_state()
        with ShardCoordinator(network, n_shards=2, log_dir=tmp_path) as fed:
            with pytest.raises(ShardError, match="another network"):
                fed.recover()
        # The refusal damaged nothing: the shard count that wrote the
        # logs still recovers them.
        with ShardCoordinator(network, n_shards=4, log_dir=tmp_path) as fed:
            assert fed.recover() == 3
            assert fed.residual_state() == live

    def test_restart_alive_shard_and_unknown_shard_raise(self):
        network, zones = _clique_world(4, 2)
        with ShardCoordinator(network, zones=zones) as coordinator:
            with pytest.raises(ShardError):
                coordinator.restart_shard(0)
            with pytest.raises(ShardError, match="no shard"):
                coordinator.kill_shard(9)


class TestCommitCrossLedgerRebuild:
    """Regression: a phase-2 abort must not leak ledger or owner holds.

    ``_commit_cross`` applies per-owner reservations and then reserves
    the boundary-ledger entries.  If the ledger refuses, the abort path
    withdraws the applied owners; the ledger's reserve is all-or-nothing,
    so it holds nothing for an app that was never admitted.
    """

    class _ConsumeThenFail:
        """Ledger stand-in whose reserve refuses after owners applied."""

        def __init__(self, inner):
            self._inner = inner

        def reserve(self, holds):
            list(holds)
            raise PlacementError("injected ledger failure")

        def __getattr__(self, name):
            return getattr(self._inner, name)

    def test_aborted_commit_leaves_ledger_and_owners_unchanged(self):
        from repro.core.scheduler import evaluate_admission
        from repro.exceptions import StaleProposalError

        network, zones = _two_ncp_world()
        with ShardCoordinator(network, zones=zones) as coordinator:
            coordinator.submit(_gr("seed", "ncp1", "ncp2", min_rate=2.0))
            coordinator.drain()
            baseline = coordinator.ledger_entries()
            assert baseline  # the seed really does cross the boundary

            request = _gr("victim", "ncp1", "ncp2", min_rate=2.0)
            view = coordinator._thaw_merged(coordinator._merged_entries())
            proposal = evaluate_admission(
                request, network, view, assigner=coordinator._assigner
            )
            assert proposal.accepted

            coordinator._ledger = self._ConsumeThenFail(coordinator._ledger)
            with pytest.raises(StaleProposalError, match="aborted at an owner"):
                coordinator._commit_cross(request, proposal)

            # The seed's holds survive, the victim holds nothing, and no
            # phantom app was recorded anywhere.
            assert coordinator.ledger_entries() == baseline
            for node in coordinator.nodes:
                tags = node.scheduler.external_tags()
                assert "seed" in tags
                assert "victim" not in tags


class TestPartitionDataclass:
    def test_assignments_are_copied(self):
        network, zones = _clique_world(4, 2)
        partition = partition_network(network, zones=zones)
        assert isinstance(partition, NetworkPartition)
        zones["ncp1"] = 1  # mutating the input must not leak in
        assert partition.shard_of("ncp1") == 0
