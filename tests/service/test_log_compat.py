"""Event logs written by earlier versions still replay and recover.

``tests/data/parent_logs`` holds the logs of two small federations on the
smoke scenario's network in two formats (see the README there): written
by the version that logged the FCFS ledger beside the GR residual in
every checkpoint and delta, prediction on or off, and (``delta_only/``)
by the last version whose records carried a ``delta`` instead of the
decision alone.  ``expected.json`` records, next to them, what each
version replayed them to and how many applications its ``--recover``
server reported.  Today a node under prediction keeps no ledger and logs
decisions, not deltas, and replay reads only the apps a log folds to:
these logs must still restore to the same views and apps.
"""

from __future__ import annotations

import asyncio
import json
import shutil
from pathlib import Path

import pytest

from repro.core.scenario import load_scenario
from repro.core.scheduler import SparcleScheduler
from repro.perf.counters import PerfRegistry
from repro.service.client import SparcleClient
from repro.service.server import SparcleServer
from repro.service.shard import (
    ShardEventLog,
    ShardNode,
    hold_apps,
    partition_network,
    replay_log,
)

DATA = Path(__file__).resolve().parents[1] / "data"
FIXTURES = DATA / "parent_logs"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())
FEDERATIONS = (
    "one_shard",
    "two_shard",
    "delta_only/one_shard",
    "delta_only/two_shard",
)


def _network():
    return load_scenario(DATA / "smoke_scenario.json").network


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _shard_logs(name: str):
    for stem, expected in sorted(EXPECTED[name]["shards"].items()):
        path = FIXTURES / name / f"{stem}.jsonl"
        yield int(stem.split("-")[1]), path, expected


def _copy(name: str, tmp_path: Path) -> Path:
    target = tmp_path / name
    shutil.copytree(FIXTURES / name, target)
    return target


def _entries(snapshot):
    return None if snapshot is None else [list(e) for e in snapshot.entries]


def _check_format(name: str, records: list[dict]) -> None:
    if name.startswith("delta_only/"):
        # Every record after a checkpoint carries a delta; none carries
        # an FCFS ledger.
        assert all("delta" in r for r in records if "residual" not in r)
        assert not any("fcfs" in r or "fcfs" in r.get("delta", {})
                       for r in records)
    else:
        assert all(
            "fcfs" in record.get("delta", record)
            for record in records
            if "residual" in record or "delta" in record
        )


@pytest.mark.parametrize("name", FEDERATIONS)
def test_replay_gives_the_recorded_state(name):
    partition = partition_network(_network(), EXPECTED[name]["n_shards"])
    for shard_id, path, expected in _shard_logs(name):
        records = _records(path)
        _check_format(name, records)
        apps = replay_log(records)
        assert [app.to_json() for app in apps.values()] == expected["apps"]
        # A version that kept a ledger restores with one.
        scheduler = SparcleScheduler(
            partition.subnetworks[shard_id],
            use_prediction=expected["fcfs"] is None,
        )
        hold_apps(scheduler, apps.values())
        assert _entries(scheduler.residual_snapshot()) == expected["residual"]
        assert _entries(scheduler.fcfs_snapshot()) == expected["fcfs"]


@pytest.mark.parametrize("name", FEDERATIONS)
def test_recover_compacts_to_a_checkpoint_without_a_ledger(name, tmp_path):
    logs = _copy(name, tmp_path)
    partition = partition_network(_network(), EXPECTED[name]["n_shards"])
    for shard_id, path, expected in _shard_logs(name):
        log = ShardEventLog(logs / path.name)
        node = ShardNode(shard_id, partition.subnetworks[shard_id], log=log)
        try:
            assert node.recover()
            records = log.records()
            assert len(records) == 1
            assert not {"fcfs", "residual"} & set(records[0])
            assert node.scheduler.fcfs_snapshot() is None
            assert _entries(node.scheduler.residual_snapshot()) == (
                expected["residual"]
            )
            apps = replay_log(_records(logs / path.name))
            assert [app.to_json() for app in apps.values()] == expected["apps"]
            assert node.live_apps() == apps
            # Records append to the compacted log and fold exactly.
            first = next(iter(apps))
            node.withdraw(first)
            assert log.records()[-1] == {
                "seq": 1, "type": "release", "app_id": first,
            }
            del apps[first]
            assert replay_log(log.records()) == apps == node.live_apps()
            restored = SparcleScheduler(node.network)
            hold_apps(restored, apps.values())
            assert restored.residual_snapshot() == (
                node.scheduler.residual_snapshot()
            )
        finally:
            node.close()


@pytest.mark.parametrize("name", FEDERATIONS)
def test_recovering_server_reports_the_recorded_count(name, tmp_path):
    logs = _copy(name, tmp_path)
    expected = EXPECTED[name]

    async def _run():
        server = SparcleServer(
            _network(), n_shards=expected["n_shards"], log_dir=logs,
            recover=True, epoch_interval=0.005, registry=PerfRegistry(),
        )
        await server.start()
        try:
            async with await SparcleClient.open(
                server.host, server.port
            ) as client:
                status = await client.status()
        finally:
            await server.shutdown()
        return server.recovered, status.recovered

    assert asyncio.run(_run()) == (expected["recovered"],) * 2
    for path in sorted(logs.glob("shard-*.jsonl")):
        assert not any("fcfs" in record for record in _records(path))
