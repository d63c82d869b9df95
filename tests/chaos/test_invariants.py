"""Invariant-registry tests: clean worlds pass, corrupted worlds fail."""

from __future__ import annotations

import pytest

from repro.chaos import (
    ChaosContext,
    check_invariants,
    invariant,
    registered_invariants,
)
from repro.chaos.invariants import placement_key, scratch_residual
from repro.core.network import star_network
from repro.core.repair import RepairController
from repro.core.scheduler import GRRequest, SparcleScheduler
from repro.core.taskgraph import linear_task_graph
from repro.service.gateway import AdmissionGateway

EXPECTED_INVARIANTS = (
    "decision-log",
    "gr-guarantee",
    "no-migration",
    "residual-conservation",
    "residual-nonnegative",
    "shard-ledger-conservation",
    "shard-log-consistency",
    "shard-residual-conservation",
)


def _gr(app_id: str, *, rate: float = 0.1) -> GRRequest:
    graph = linear_task_graph(
        2, cpu_per_ct=100.0, megabits_per_tt=1.0
    ).with_pins({"source": "ncp1", "sink": "ncp2"}, name=app_id)
    return GRRequest(app_id, graph, min_rate=rate, max_paths=2)


@pytest.fixture
def world():
    network = star_network(
        5, hub_cpu=30000.0, leaf_cpu=10000.0, link_bandwidth=50.0
    )
    scheduler = SparcleScheduler(network)
    gateway = AdmissionGateway(scheduler)
    controller = RepairController(scheduler)
    yield scheduler, gateway, controller
    gateway.close()


def _context(scheduler, gateway, controller, **overrides) -> ChaosContext:
    defaults = dict(
        scheduler=scheduler,
        gateway=gateway,
        controller=controller,
        event_index=0,
        event_kind="epoch",
    )
    defaults.update(overrides)
    return ChaosContext(**defaults)


class TestRegistry:
    def test_expected_invariants_registered(self):
        assert registered_invariants() == EXPECTED_INVARIANTS

    def test_unknown_invariant_rejected(self, world):
        scheduler, gateway, controller = world
        context = _context(scheduler, gateway, controller)
        with pytest.raises(ValueError, match="unknown invariant"):
            check_invariants(context, ["no-such-check"])

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            invariant("no-migration")(lambda context: [])


class TestCleanWorld:
    def test_fresh_world_passes_everything(self, world):
        scheduler, gateway, controller = world
        context = _context(scheduler, gateway, controller)
        assert check_invariants(context) == []

    def test_admitted_world_passes_everything(self, world):
        scheduler, gateway, controller = world
        tickets = {}
        for index in range(3):
            request = _gr(f"gr{index}")
            tickets[request.app_id] = gateway.submit(request)
        gateway.drain()
        context = _context(scheduler, gateway, controller, tickets=tickets)
        assert check_invariants(context) == []

    def test_scratch_residual_matches_live(self, world):
        scheduler, gateway, controller = world
        gateway.process([_gr("a"), _gr("b")])
        assert scratch_residual(scheduler) == scheduler.state().residual


class TestCorruptedWorld:
    def test_halved_residual_is_caught(self, world):
        scheduler, gateway, controller = world
        gateway.process([_gr("a")])
        view = scheduler._gr_residual
        view.override("ncp1", "cpu", view.snapshot()["ncp1"]["cpu"] * 0.5)
        context = _context(scheduler, gateway, controller)
        names = {v.invariant for v in check_invariants(context)}
        assert "residual-conservation" in names

    def test_negative_residual_is_caught(self, world):
        scheduler, gateway, controller = world
        # Every CapacityView mutator floors at zero, so a negative entry
        # can only appear through raw-state corruption — exactly the
        # defense-in-depth case this invariant exists for.
        view = scheduler._gr_residual
        view._flat[("ncp1", "cpu")] = -5.0
        context = _context(scheduler, gateway, controller)
        names = {v.invariant for v in check_invariants(context)}
        assert "residual-nonnegative" in names

    def test_migrated_placement_is_caught(self, world):
        scheduler, gateway, controller = world
        gateway.process([_gr("a")])
        real = tuple(
            placement_key(record.placement)
            for record in scheduler.paths("a", "GR")
        )
        # Pretend the pre-event snapshot saw a different placement: the
        # invariant must flag the in-place change.
        forged = tuple(
            (key[0], tuple()) for key in real
        )
        context = _context(
            scheduler, gateway, controller,
            pre_gr_placements={"a": forged},
        )
        names = {v.invariant for v in check_invariants(context)}
        assert "no-migration" in names

    def test_shrunken_record_list_is_caught(self, world):
        scheduler, gateway, controller = world
        gateway.process([_gr("a")])
        real = tuple(
            placement_key(record.placement)
            for record in scheduler.paths("a", "GR")
        )
        context = _context(
            scheduler, gateway, controller,
            pre_gr_placements={"a": real + real},
        )
        details = [
            v.detail
            for v in check_invariants(context, ["no-migration"])
        ]
        assert any("append-only" in detail for detail in details)

    def test_shed_app_with_decision_is_caught(self, world):
        scheduler, gateway, controller = world
        gateway.process([_gr("a")])
        context = _context(
            scheduler, gateway, controller, shed=frozenset({"a"})
        )
        names = {v.invariant for v in check_invariants(context)}
        assert "decision-log" in names

    def test_withdrawn_app_is_not_a_migration(self, world):
        scheduler, gateway, controller = world
        gateway.process([_gr("a")])
        before = {
            "a": tuple(
                placement_key(record.placement)
                for record in scheduler.paths("a", "GR")
            )
        }
        scheduler.withdraw("a")
        context = _context(
            scheduler, gateway, controller, pre_gr_placements=before
        )
        assert check_invariants(context, ["no-migration"]) == []
