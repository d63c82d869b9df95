"""Property tests for the footprint-delta event log.

A shard log is a checkpoint followed by records that carry only the
entries of the elements their event touched.  Three guarantees make that
safe, each checked over Hypothesis-drawn scripts of GR/BE admissions
(prediction on and off), withdrawals, cross-shard reservations and shard
kill/restart on one and two shards:

* **every prefix replays exactly** — ``replay_log(records[:k])`` equals
  the live residual and FCFS entries as they were right after record
  ``k`` was appended, bit for bit, for every ``k``.  Under prediction no
  FCFS ledger is kept: no record carries ``fcfs`` and the replayed
  ``fcfs`` is ``None``;
* **compaction loses nothing** — recovering a node from its log rewrites
  the log to one checkpoint that replays to the same ``ReplayState``;
* **one replay path** — the same history written the old way (the full
  views in every record, no ``delta``, no ``apps``) replays to the same
  ``ReplayState``, and under prediction a log that also carries an
  ``fcfs`` ledger in every record (what earlier versions wrote) replays
  to the same residual and applications.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import fully_connected_network
from repro.core.scheduler import BERequest, GRRequest
from repro.core.taskgraph import linear_task_graph
from repro.service.shard import (
    ShardCoordinator,
    ShardEventLog,
    ShardNode,
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
    return network, zones, draw(st.booleans()), operations


def _watch(node: ShardNode, states: list) -> None:
    """Record the node's live views right after every log append."""
    append = node.log.append

    def spy(record):
        stamped = append(record)
        ledger = node.scheduler.fcfs_snapshot()
        states.append((
            node.residual_entries(),
            None if ledger is None else ledger.entries,
        ))
        return stamped

    node.log.append = spy


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


def _entries_json(entries):
    return [list(entry) for entry in entries]


def _fresh_state(use_prediction: bool):
    """Record 0: the fresh node's snapshot of the empty state."""
    return ((), None if use_prediction else ())


def _carries_fcfs(record) -> bool:
    return "fcfs" in record or "fcfs" in record.get("delta", {})


def _with_ledger_twin(record):
    """``record`` as earlier versions wrote it under prediction: with an
    ``fcfs`` ledger beside every ``residual`` view."""
    record = dict(record)
    if "residual" in record:
        record["fcfs"] = record["residual"]
    if "delta" in record:
        delta = record["delta"]
        record["delta"] = {**delta, "fcfs": delta["residual"]}
    return record


class TestDeltaLog:
    @SETTINGS
    @given(scripts())
    def test_every_prefix_replays_to_the_live_state(self, script):
        network, zones, use_prediction, operations = script
        with ShardCoordinator(
            network, zones=zones, use_prediction=use_prediction,
            max_queue_depth=64,
        ) as coordinator:
            states = {}
            for node in coordinator.nodes:
                states[node.shard_id] = [_fresh_state(use_prediction)]
                _watch(node, states[node.shard_id])
            _run(coordinator, operations)
            for node in coordinator.nodes:
                records = _through_json(node.log.records())
                assert any(map(_carries_fcfs, records)) is not use_prediction
                seen = states[node.shard_id]
                assert len(records) == len(seen)
                for k, state in enumerate(seen, start=1):
                    replayed = replay_log(records[:k])
                    assert (replayed.residual, replayed.fcfs) == state, k

    @SETTINGS
    @given(scripts())
    def test_compaction_and_old_format_replay_to_the_same_state(self, script):
        network, zones, use_prediction, operations = script
        with ShardCoordinator(
            network, zones=zones, use_prediction=use_prediction,
            max_queue_depth=64,
        ) as coordinator:
            states = {}
            for node in coordinator.nodes:
                states[node.shard_id] = [_fresh_state(use_prediction)]
                _watch(node, states[node.shard_id])
            _run(coordinator, operations)
            for node in coordinator.nodes:
                records = _through_json(node.log.records())
                expected = replay_log(records)
                assert expected.residual == node.residual_entries()

                # Recovery rewrites the log to one equivalent checkpoint.
                copy = ShardEventLog()
                for record in records:
                    copy.append(
                        {k: v for k, v in record.items() if k != "seq"}
                    )
                twin = ShardNode(
                    node.shard_id, node.network,
                    use_prediction=use_prediction, log=copy,
                )
                assert twin.recover()
                assert len(copy) == 1
                assert replay_log(_through_json(copy.records())) == expected
                assert twin.residual_entries() == expected.residual
                ledger = twin.scheduler.fcfs_snapshot()
                assert (
                    None if ledger is None else ledger.entries
                ) == expected.fcfs

                # The same history, snapshot-per-record as it used to be
                # written, goes through the same replay.
                old_format = [
                    {
                        **{
                            key: value for key, value in record.items()
                            if key not in ("delta", "apps")
                        },
                        "residual": _entries_json(residual),
                        **(
                            {} if fcfs is None
                            else {"fcfs": _entries_json(fcfs)}
                        ),
                    }
                    for record, (residual, fcfs) in zip(
                        records, states[node.shard_id]
                    )
                ]
                assert replay_log(_through_json(old_format)) == expected

                if use_prediction:
                    # A log that carries the ledger anyway replays to the
                    # same residual and apps; recovering it drops the ledger.
                    with_ledger = [_with_ledger_twin(r) for r in records]
                    replayed = replay_log(with_ledger)
                    assert replayed.residual == expected.residual
                    assert replayed.apps == expected.apps
                    copy = ShardEventLog()
                    for record in with_ledger:
                        copy.append(
                            {k: v for k, v in record.items() if k != "seq"}
                        )
                    twin = ShardNode(
                        node.shard_id, node.network,
                        use_prediction=True, log=copy,
                    )
                    assert twin.recover()
                    assert twin.residual_entries() == expected.residual
                    assert not _carries_fcfs(copy.records()[0])
