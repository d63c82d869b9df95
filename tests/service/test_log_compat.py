"""Event logs written by earlier versions still replay and recover.

``tests/data/parent_logs`` holds the logs of two small federations on the
smoke scenario's network in three formats (see the README there): written
by the version that logged the FCFS ledger beside the GR residual in
every checkpoint and delta, prediction on or off, (``delta_only/``) by
the last version whose records carried a ``delta`` instead of the
decision alone, and (``element_major/``) by the last version that logged
each hold element by element.  ``expected.json`` records, next to them,
what each version replayed them to and how many applications its
``--recover`` server reported.  Today a node keeps no ledger, logs
decisions, not deltas, writes holds resource-major, and replay reads
only the apps a log folds to: these logs must still restore to the same
residual and apps, and the logged holds of the ledger-era logs must
still add up to the ledger those versions kept.
"""

from __future__ import annotations

import asyncio
import json
import shutil
from pathlib import Path

import pytest

from repro.core.placement import CapacityView
from repro.core.scenario import load_scenario
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.core.taskgraph import BANDWIDTH, linear_task_graph
from repro.perf.counters import PerfRegistry
from repro.service.client import SparcleClient
from repro.service.server import SparcleServer
from repro.service.shard import (
    LiveApp,
    ShardCoordinator,
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
    "element_major/one_shard",
    "element_major/two_shard",
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
    return [list(e) for e in snapshot.entries]


def _apps(raw_apps: list[dict]) -> list[dict]:
    """``apps`` entries with their holds re-encoded by today's codec, so
    two tables compare by their decoded holds, not by the layout a
    version wrote them in."""
    return [
        LiveApp(raw["app_id"], raw["kind"], raw["origin"], raw["consumed"])
        .to_json()
        for raw in raw_apps
    ]


def _holds(records: list[dict]) -> list[dict]:
    """Every logged hold item of a log."""
    items = []
    for record in records:
        for app in record.get("apps", ()):
            items += app["consumed"]
        for decision in record.get("decisions", ()):
            items += decision["consumed"]
        items += record.get("consumed", ())
    return items


def _fcfs_ledger(network, apps) -> list[list]:
    """The FCFS ledger the writing version kept: every live app's logged
    holds, a local BE app's included, folded onto a fresh view."""
    view = CapacityView(network)
    for app in apps:
        for loads, rate in app.consumptions():
            view.consume(loads, rate)
    return _entries(view.freeze())


def _check_format(name: str, records: list[dict]) -> None:
    if name.startswith("element_major/"):
        # Holds keyed element by element, no logged views, no deltas.
        assert _holds(records)
        assert all("loads" in item for item in _holds(records))
        assert not any({"delta", "fcfs", "residual"} & set(r) for r in records)
    elif name.startswith("delta_only/"):
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
        assert [app.to_json() for app in apps.values()] == (
            _apps(expected["apps"])
        )
        network = partition.subnetworks[shard_id]
        scheduler = SparcleScheduler(network)
        hold_apps(scheduler, apps.values())
        assert _entries(scheduler.residual_snapshot()) == expected["residual"]
        if expected["fcfs"] is not None:
            assert _fcfs_ledger(network, apps.values()) == expected["fcfs"]


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
            assert _entries(node.scheduler.residual_snapshot()) == (
                expected["residual"]
            )
            apps = replay_log(_records(logs / path.name))
            assert all("holds" in item for item in _holds(records))
            assert [app.to_json() for app in apps.values()] == (
                _apps(expected["apps"])
            )
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


def test_a_logged_be_hold_restores_holding_nothing():
    """A version that kept the FCFS ledger without prediction logged each
    accepted BE app's holds.  The fold keeps them as logged; restore
    charges none of them, and the app still withdraws."""
    network = _network()
    held = [{"loads": {network.links[0].name: {BANDWIDTH: 1.0}}, "rate": 2.0}]
    log = ShardEventLog()
    log.append({"type": "snapshot", "apps": []})
    log.append({"type": "epoch", "epoch": 1, "decisions": [
        {"app_id": "b", "kind": "BE", "accepted": True, "reason": "",
         "path_rates": [2.0], "consumed": held},
    ]})
    assert replay_log(log.records())["b"].consumed == held
    node = ShardNode(0, network, log=log)
    fresh = node.scheduler.residual_snapshot()
    assert node.recover()
    assert node.scheduler.residual_snapshot() == fresh
    assert node.scheduler.app_ids() == ("b",)
    assert node.consumption_ledger() == {"b": ()}
    node.withdraw("b")
    assert node.live_apps() == {} == replay_log(log.records())
    assert node.scheduler.app_ids() == ()
    assert node.scheduler.residual_snapshot() == fresh


def _request(kind: str, app_id: str, src: str, dst: str):
    graph = linear_task_graph(
        2, cpu_per_ct=300.0, megabits_per_tt=1.0
    ).with_pins({"source": src, "sink": dst}, name=app_id)
    if kind == "GR":
        return GRRequest(app_id, graph, min_rate=0.5, max_paths=2)
    return BERequest(app_id, graph)


@pytest.mark.parametrize(
    "name", ["element_major/one_shard", "element_major/two_shard"]
)
def test_element_major_log_recovers_takes_records_and_recovers_again(
    name, tmp_path
):
    """Recover a log that keys holds element by element, append records in
    today's layout, stop the process without compacting, recover again:
    the views come back bit-equal to the ones the stopped process held."""
    logs = _copy(name, tmp_path)
    network = _network()
    n_shards = EXPECTED[name]["n_shards"]
    with ShardCoordinator(network, n_shards=n_shards, log_dir=logs) as fed:
        assert fed.recover() == EXPECTED[name]["recovered"]
        decisions = fed.process([
            _request("GR", "m1", "ncp1", "ncp3"),
            _request("BE", "m2", "ncp3", "ncp5"),
        ])
        assert all(decision.accepted for decision in decisions)
        # Withdraw an app the element-major log admitted.
        fed.withdraw(EXPECTED[name]["shards"]["shard-0"]["apps"][0]["app_id"])
        live = fed.residual_state()
        apps = [node.live_apps() for node in fed.nodes]
    for path in sorted(logs.glob("shard-*.jsonl")):
        records = _records(path)
        assert _holds(records)
        assert all("holds" in item for item in _holds(records))
    with ShardCoordinator(network, n_shards=n_shards, log_dir=logs) as fed:
        fed.recover()
        assert fed.residual_state() == live
        assert [node.live_apps() for node in fed.nodes] == apps
