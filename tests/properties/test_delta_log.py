"""Property tests for the decision event log and its one replay reader.

A shard log is a checkpoint (the live apps with their holds) followed by
records that carry decisions: the loads an epoch admitted or a
cross-shard reservation took, the id a withdrawal released.  Replay
folds them into the live-app table and a fresh scheduler charges that
table's holds (``hold_apps``).  Three guarantees make that safe, each
checked over Hypothesis-drawn scripts of GR/BE admissions,
withdrawals, cross-shard reservations and shard kill/restart on one and
two shards:

* **every prefix restores exactly** — a scheduler holding
  ``replay_log(records[:k])`` has the live residual as it was right
  after record ``k`` was appended, bit for bit, for every ``k``; and the
  node's own live-app table after record ``k`` *is*
  ``replay_log(records[:k])``;
* **compaction loses nothing** — recovering a node from its log rewrites
  the log to one checkpoint that replays to the same table and restores
  the same residual;
* **old formats restore the same** — the same history written the old
  ways (the full residual in every record and no ``apps``; a ``delta``
  of it after every checkpoint; an ``fcfs`` ledger beside every
  ``residual``) replays to the same table, whose views are never read.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import fully_connected_network
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import linear_task_graph
from repro.service.shard import (
    ShardCoordinator,
    ShardEventLog,
    ShardNode,
    hold_apps,
    replay_log,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

NCPS = ("ncp1", "ncp2", "ncp3", "ncp4")


@st.composite
def requests(draw, index: int):
    src = draw(st.sampled_from(NCPS))
    dst = draw(st.sampled_from([name for name in NCPS if name != src]))
    cpu = draw(st.floats(100.0, 900.0))
    graph = linear_task_graph(
        2, cpu_per_ct=cpu, megabits_per_tt=draw(st.floats(0.5, 3.0))
    ).with_pins({"source": src, "sink": dst}, name=f"app{index}")
    if draw(st.booleans()):
        return GRRequest(
            f"app{index}", graph,
            min_rate=draw(st.floats(0.05, 2.0)), max_paths=2,
        )
    return BERequest(
        f"app{index}", graph,
        priority=draw(st.sampled_from([1.0, 2.0, 4.0])), max_paths=2,
    )


@st.composite
def scripts(draw):
    """A federation shape plus a list of operations to run against it."""
    n_shards = draw(st.sampled_from([1, 2]))
    network = fully_connected_network(
        len(NCPS),
        cpu=draw(st.floats(2000.0, 20000.0)),
        link_bandwidth=draw(st.floats(4.0, 40.0)),
    )
    zones = {
        name: (index // 2 if n_shards == 2 else 0)
        for index, name in enumerate(NCPS)
    }
    operations = []
    submitted = 0
    for _ in range(draw(st.integers(3, 10))):
        kind = draw(st.sampled_from(
            ["admit", "admit", "admit", "withdraw", "withdraw", "bounce"]
        ))
        if kind == "admit":
            batch = [
                draw(requests(submitted + offset))
                for offset in range(draw(st.integers(1, 3)))
            ]
            submitted += len(batch)
            operations.append(("admit", batch))
        elif kind == "withdraw":
            operations.append(("withdraw", draw(st.integers(0, 50))))
        else:
            operations.append((
                "bounce",
                draw(st.integers(0, n_shards - 1)),
                # Withdraw a cross-shard app while the shard is down, so
                # the restart has a reservation to reconcile.
                draw(st.booleans()),
            ))
    return network, zones, operations


def _views(scheduler: SparcleScheduler):
    return scheduler.residual_snapshot().entries


def _watch(node: ShardNode, states: list, tables: list) -> None:
    """Record the node's live residual right after every log append, and
    its live-app table right before (the fold of every earlier record)."""
    append = node.log.append

    def spy(record):
        tables.append(node.live_apps())
        stamped = append(record)
        states.append(_views(node.scheduler))
        return stamped

    node.log.append = spy


def _restored(records, node: ShardNode):
    """The residual a fresh scheduler for ``node`` holds once
    ``records``' live apps are charged on it."""
    scheduler = SparcleScheduler(node.network)
    hold_apps(scheduler, replay_log(records).values())
    return _views(scheduler)


def _run(coordinator: ShardCoordinator, operations) -> None:
    live: list[str] = []
    for operation in operations:
        if operation[0] == "admit":
            for request, decision in zip(
                operation[1], coordinator.process(operation[1])
            ):
                if decision is not None and decision.accepted:
                    live.append(request.app_id)
        elif operation[0] == "withdraw":
            if live:
                coordinator.withdraw(live.pop(operation[1] % len(live)))
        else:
            _, shard_id, withdraw_while_down = operation
            coordinator.kill_shard(shard_id)
            crossing = [app_id for app_id, _ in coordinator.cross_apps()]
            if withdraw_while_down and crossing:
                coordinator.withdraw(crossing[0])
                live.remove(crossing[0])
            coordinator.restart_shard(shard_id)


def _through_json(records):
    return [json.loads(json.dumps(r, sort_keys=True)) for r in records]


def _old_formats(records, seen):
    """The same history as earlier versions wrote it, each record with
    the residual that held right after it: snapshot-per-record with no
    ``apps``, then checkpoints followed by a ``delta`` (here: the whole
    view) in every other record, without and with an ``fcfs`` ledger (a
    copy of the residual)."""
    def view(entries):
        out = {}
        for element, resource, value in entries:
            out.setdefault(element, {})[resource] = value
        return out

    formats = {"snapshot": [], "delta": [], "ledger": []}
    for record, residual in zip(records, seen):
        views = {"residual": residual}
        ledger = {**views, "fcfs": residual}
        formats["snapshot"].append({
            **{k: v for k, v in record.items() if k != "apps"},
            **{k: [list(e) for e in v] for k, v in views.items()},
        })
        for name, carried in (("delta", views), ("ledger", ledger)):
            if "apps" in record:
                extra = {k: [list(e) for e in v] for k, v in carried.items()}
            else:
                extra = {"delta": {k: view(v) for k, v in carried.items()}}
            formats[name].append({**record, **extra})
    return formats


def _recovered(node: ShardNode, records) -> ShardNode:
    """A twin of ``node`` recovered from a copy of ``records``."""
    copy = ShardEventLog()
    for record in records:
        copy.append({k: v for k, v in record.items() if k != "seq"})
    twin = ShardNode(node.shard_id, node.network, log=copy)
    assert twin.recover()
    assert len(copy) == 1
    return twin


def _run_watched(script):
    """Run ``script``; per shard: its node, records, residuals and tables."""
    network, zones, operations = script
    with ShardCoordinator(
        network, zones=zones, max_queue_depth=64
    ) as coordinator:
        seen = {}
        for node in coordinator.nodes:
            # Record 0: the fresh node's snapshot of the empty state.
            seen[node.shard_id] = ([()], [])
            _watch(node, *seen[node.shard_id])
        _run(coordinator, operations)
        for node in coordinator.nodes:
            states, tables = seen[node.shard_id]
            tables.append(node.live_apps())
            yield node, _through_json(node.log.records()), states, tables


class TestDeltaLog:
    @SETTINGS
    @given(scripts())
    def test_every_prefix_replays_to_the_live_state(self, script):
        for node, records, states, tables in _run_watched(script):
            # Records carry decisions; no record carries a view.
            assert not any(
                {"residual", "fcfs", "delta", "ledger"} & set(record)
                for record in records
            )
            assert len(records) == len(states) == len(tables)
            for k, (state, table) in enumerate(zip(states, tables), start=1):
                assert replay_log(records[:k]) == table, k
                assert _restored(records[:k], node) == state, k

    @SETTINGS
    @given(scripts())
    def test_compaction_and_old_format_replay_to_the_same_state(self, script):
        for node, records, states, _ in _run_watched(script):
            expected = replay_log(records)
            live = _views(node.scheduler)
            assert _restored(records, node) == live

            # Recovery rewrites the log to one equivalent checkpoint.
            twin = _recovered(node, records)
            assert replay_log(_through_json(twin.log.records())) == expected
            assert _views(twin.scheduler) == live

            # The same history as earlier versions wrote it replays to
            # the same table and recovers to the same residual.
            for name, old in _old_formats(records, states).items():
                old = _through_json(old)
                assert replay_log(old) == expected, name
                twin = _recovered(node, old)
                assert _views(twin.scheduler) == live, name
                assert "fcfs" not in twin.log.records()[0], name
