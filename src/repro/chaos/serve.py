"""Chaos soak for the serving front-end: kill mid-burst, recover, verify.

The scenario the ISSUE's acceptance criteria name, end to end over real
sockets:

1. **Burst** — start a :class:`~repro.service.server.SparcleServer`
   (sharded backend, durable event logs), drive a fuzzed request burst
   through a :class:`~repro.service.client.SparcleClient`, and withdraw
   a seeded third of the apps accepted so far, so the logs hold
   ``release`` records for the recovery to fold.
2. **Kill** — hard-abort the server mid-burst (no drain: queued work is
   lost, the logs end wherever the last epoch left them — exactly what a
   crashed process leaves behind).
3. **Recover** — start a fresh server over the same log directory with
   ``recover=True``, reconnect, and resubmit the burst (the withdrawn
   apps left for good and are not resubmitted).
4. **Verify** — three invariants over the durable logs and the replies:

   * ``serve-log-checkpoint`` — each shard's pre-kill log replays to
     exactly the live residual the killed server held, and the
     checkpoint record recovery compacts it to replays, alone, to the
     same state (neither the replay nor compaction loses anything);
   * ``serve-no-double-admission`` — no application is accepted twice
     across the pre-kill and post-recovery shard logs: everything
     admitted before the kill is rejected as a duplicate after it;
   * ``serve-all-decided`` — every request in the burst ends decided,
     duplicate-rejected or withdrawn; nothing vanishes silently.

The invariants are deterministic in the seed; which requests were still
undecided at the kill point depends on event-loop timing, so the *stats*
(not the verdict) may vary between runs.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.chaos.fuzzer import FuzzProfile, fuzz_network, fuzz_request
from repro.chaos.invariants import InvariantViolation
from repro.core.network import Network
from repro.core.scheduler import BERequest, GRRequest, SparcleScheduler
from repro.exceptions import AdmissionError, SparcleError
from repro.service.client import SparcleClient
from repro.service.server import SparcleServer
from repro.service.shard import LiveApp, ShardNode, hold_apps, replay_log
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass
class ServeSoakReport:
    """Everything one serve soak observed, JSON-serializable."""

    seed: int | None
    n_requests: int
    ok: bool
    violations: list[InvariantViolation] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "n_requests": self.n_requests,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "stats": self.stats,
        }


def _snapshot_logs(log_dir: Path) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(log_dir.glob("*.jsonl"))
    }


def _shard_records(logs: dict[str, bytes]) -> dict[str, list[dict[str, Any]]]:
    """The parsed records of every shard log in a :func:`_snapshot_logs`."""
    return {
        name: [json.loads(line) for line in raw.splitlines() if line.strip()]
        for name, raw in logs.items()
        if name.startswith("shard-")
    }


def _accepted_in_logs(logs: dict[str, bytes]) -> list[str]:
    """Every acceptance event across the shard logs, with repeats kept."""
    return [
        str(decision["app_id"])
        for records in _shard_records(logs).values()
        for record in records
        if record.get("type") == "epoch"
        for decision in record.get("decisions", ())
        if decision.get("accepted")
    ]


def _restored_residual(
    node: ShardNode, apps: dict[str, LiveApp]
) -> tuple[tuple[str, str, float], ...]:
    """The residual a fresh scheduler for ``node``'s region holds once the
    replayed ``apps`` are charged on it."""
    restored = SparcleScheduler(node.network)
    hold_apps(restored, apps.values())
    return restored.residual_snapshot().entries


async def _run_scenario(
    network: Network,
    requests: list[GRRequest | BERequest],
    *,
    n_shards: int,
    log_dir: Path,
    withdraw_rng: np.random.Generator,
    stats: dict[str, Any],
    violations: list[InvariantViolation],
) -> None:
    # ------------------------------------------------------------- burst
    server = SparcleServer(
        network, n_shards=n_shards, log_dir=log_dir, epoch_interval=0.005
    )
    await server.start()
    client = await SparcleClient.open(server.host, server.port)
    kill_at = max(2, len(requests) // 2)
    submit_errors = 0
    for request in requests[:kill_at]:
        try:
            await client.submit(request)
        except SparcleError:
            submit_errors += 1
    # Give the epoch loop a moment so the kill lands mid-burst with some
    # decisions committed and (typically) some still queued.
    for _ in range(200):
        if any(reply.accepted for reply in client.decisions.values()):
            break
        await asyncio.sleep(0.005)
    accepted = sorted(
        app_id for app_id, reply in client.decisions.items() if reply.accepted
    )
    chosen = withdraw_rng.permutation(len(accepted))
    withdrawn = {accepted[i] for i in chosen[: math.ceil(len(accepted) / 3)]}
    for app_id in sorted(withdrawn):
        await client.withdraw(app_id)
    # --------------------------------------------------------------- kill
    await server.abort()
    killed = {
        f"shard-{node.shard_id}.jsonl": node for node in server.coordinator.nodes
    }
    await client.close()
    pre_decisions = dict(client.decisions)
    pre_logs = _snapshot_logs(log_dir)
    stats["submitted_pre_kill"] = kill_at - submit_errors
    stats["submit_errors_pre_kill"] = submit_errors
    stats["decided_pre_kill"] = len(pre_decisions)
    stats["accepted_pre_kill"] = sum(
        1 for reply in pre_decisions.values() if reply.accepted
    )
    stats["withdrawn_pre_kill"] = len(withdrawn)

    # ------------------------------------------------------------ recover
    server2 = SparcleServer(
        network,
        n_shards=n_shards,
        log_dir=log_dir,
        recover=True,
        epoch_interval=0.005,
    )
    await server2.start()
    stats["recovered"] = server2.recovered
    client2 = await SparcleClient.open(server2.host, server2.port)
    duplicate_ids: set[str] = set()
    error_ids: set[str] = set()
    decided_post: dict[str, bool] = {}
    for request in requests:
        if request.app_id in withdrawn:
            continue
        try:
            await client2.submit(request)
        except AdmissionError:
            duplicate_ids.add(request.app_id)
            continue
        except SparcleError:
            error_ids.add(request.app_id)
            continue
        reply = await client2.decision(request.app_id)
        decided_post[request.app_id] = reply.accepted
    stats["duplicates_post_recovery"] = len(duplicate_ids)
    stats["decided_post_recovery"] = len(decided_post)
    stats["resubmit_errors"] = len(error_ids)
    await client2.drain()
    await client2.close()
    await server2.wait_closed()

    # ------------------------------------------------------------- verify
    post_logs = _snapshot_logs(log_dir)
    post_records = _shard_records(post_logs)
    for name, pre in _shard_records(pre_logs).items():
        post = post_records.get(name, [])
        replayed = replay_log(pre)
        if (
            not post
            or _restored_residual(killed[name], replayed)
            != killed[name].residual_entries()
            or replay_log(post[:1]) != replayed
        ):
            violations.append(
                InvariantViolation(
                    invariant="serve-log-checkpoint",
                    event_index=0,
                    detail=(
                        f"log {name} lost state across the recovery: its "
                        f"{len(pre)} pre-kill records do not replay to the "
                        "killed server's live residual, or its first "
                        "record does not replay to what they replay to"
                    ),
                )
            )
    accepted_events = _accepted_in_logs(pre_logs) + _accepted_in_logs(
        post_logs
    )
    repeats = sorted(
        app_id
        for app_id in set(accepted_events)
        if accepted_events.count(app_id) > 1
    )
    if repeats:
        violations.append(
            InvariantViolation(
                invariant="serve-no-double-admission",
                event_index=0,
                detail=(
                    f"{len(repeats)} app(s) accepted more than once across "
                    f"the shard logs: {repeats[:5]}"
                ),
            )
        )
    # Every accepted-pre-kill app must have come back as a duplicate.
    double_admitted = sorted(
        app_id
        for app_id, reply in pre_decisions.items()
        if reply.accepted and app_id in decided_post
    )
    if double_admitted:
        violations.append(
            InvariantViolation(
                invariant="serve-no-double-admission",
                event_index=0,
                detail=(
                    "apps admitted before the kill were re-decided after "
                    f"recovery instead of duplicate-rejected: "
                    f"{double_admitted[:5]}"
                ),
            )
        )
    undecided = sorted(
        request.app_id
        for request in requests
        if request.app_id not in decided_post
        and request.app_id not in duplicate_ids
        and request.app_id not in error_ids
        and request.app_id not in withdrawn
    )
    if undecided:
        violations.append(
            InvariantViolation(
                invariant="serve-all-decided",
                event_index=0,
                detail=(
                    f"{len(undecided)} request(s) ended neither decided, "
                    f"duplicate-rejected nor withdrawn: {undecided[:5]}"
                ),
            )
        )


def run_serve_soak(
    seed: int,
    n_requests: int = 24,
    *,
    n_shards: int = 2,
    profile: FuzzProfile | None = None,
    quick: bool = False,
    log_dir: Path | None = None,
) -> ServeSoakReport:
    """Run the kill-mid-burst / recover / verify scenario once.

    One seed fixes the fuzzed world and request burst; the three
    invariants (lossless log compaction, zero double-admissions, nothing
    silently lost) must hold for every seed.  ``quick`` shrinks the
    world and burst for CI smoke.  The event logs live in a temporary
    directory unless ``log_dir`` names one to keep them in (emptied
    first) — what CI uploads when the soak fails.
    """
    if profile is None:
        profile = FuzzProfile.quick() if quick else FuzzProfile()
    if quick:
        n_requests = min(n_requests, 10)
    world_rng, burst_rng = spawn_rngs(ensure_rng(seed), 2)
    network, _family = fuzz_network(
        world_rng, profile, name=f"serve-chaos-seed{seed}"
    )
    n_shards = min(n_shards, len(network.ncp_names))
    request_rngs = spawn_rngs(burst_rng, n_requests)
    requests: list[GRRequest | BERequest] = [
        fuzz_request(rng, network, f"serve{index}", profile)
        for index, rng in enumerate(request_rngs)
    ]
    (withdraw_rng,) = spawn_rngs(burst_rng, 1)
    stats: dict[str, Any] = {"n_shards": n_shards}
    violations: list[InvariantViolation] = []
    with contextlib.ExitStack() as stack:
        if log_dir is None:
            log_dir = Path(
                stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="sparcle-serve-soak-")
                )
            )
        else:
            shutil.rmtree(log_dir, ignore_errors=True)
            log_dir.mkdir(parents=True)
        asyncio.run(
            _run_scenario(
                network,
                requests,
                n_shards=n_shards,
                log_dir=log_dir,
                withdraw_rng=withdraw_rng,
                stats=stats,
                violations=violations,
            )
        )
    return ServeSoakReport(
        seed=seed,
        n_requests=n_requests,
        ok=not violations,
        violations=violations,
        stats=stats,
    )
