"""Event logs written with an FCFS ledger in every record still recover.

``tests/data/parent_logs`` holds the logs of two small federations on the
smoke scenario's network, written by the version that logged the FCFS
ledger beside the GR residual in every checkpoint and delta, prediction
on or off (see the README there).  ``expected.json`` records, next to
them, what that version replayed them to and how many applications its
``--recover`` server reported.  Today a node under prediction keeps no
ledger; these logs must still replay and recover to the same state.
"""

from __future__ import annotations

import asyncio
import json
import shutil
from pathlib import Path

import pytest

from repro.core.scenario import load_scenario
from repro.perf.counters import PerfRegistry
from repro.service.client import SparcleClient
from repro.service.server import SparcleServer
from repro.service.shard import (
    ShardEventLog,
    ShardNode,
    partition_network,
    replay_log,
)

DATA = Path(__file__).resolve().parents[1] / "data"
FIXTURES = DATA / "parent_logs"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())
FEDERATIONS = ("one_shard", "two_shard")


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


@pytest.mark.parametrize("name", FEDERATIONS)
def test_replay_gives_the_recorded_state(name):
    for _, path, expected in _shard_logs(name):
        records = _records(path)
        assert all(
            "fcfs" in record.get("delta", record)
            for record in records
            if "residual" in record or "delta" in record
        )
        state = replay_log(records)
        assert [list(entry) for entry in state.residual] == expected["residual"]
        assert [list(entry) for entry in state.fcfs] == expected["fcfs"]
        assert [app.to_json() for app in state.apps] == expected["apps"]


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
            assert "fcfs" not in records[0]
            state = replay_log(_records(logs / path.name))
            assert state.fcfs is None
            assert [list(e) for e in state.residual] == expected["residual"]
            assert [app.to_json() for app in state.apps] == expected["apps"]
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
