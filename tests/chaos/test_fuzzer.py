"""Fuzzer tests: every generated world is lint-clean and reproducible."""

from __future__ import annotations

import pytest

from repro.chaos import (
    FuzzProfile,
    fuzz_graph,
    fuzz_network,
    fuzz_request,
    fuzz_world,
)
from repro.chaos.fuzzer import GRAPH_SHAPES, NETWORK_FAMILIES
from repro.core.scheduler import BERequest, GRRequest
from repro.devtools.scenario_lint import lint_scenario_dict
from repro.emulator.scenario import scenario_to_dict
from repro.utils.rng import ensure_rng

SEEDS = tuple(range(12))


class TestFuzzNetwork:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_families_and_bounds(self, seed):
        profile = FuzzProfile.quick()
        network, family = fuzz_network(seed, profile)
        assert family in NETWORK_FAMILIES
        assert len(network.ncp_names) >= profile.min_ncps - 1  # star keeps >=4
        assert network.links  # connected families always have links

    def test_ncps_never_fallible(self):
        # Only links fail in the fuzzed worlds: the paper's Fig.-4 model.
        for seed in SEEDS:
            network, _ = fuzz_network(seed, FuzzProfile())
            assert all(ncp.failure_probability == 0.0 for ncp in network.ncps)

    def test_same_seed_same_network(self):
        first, _ = fuzz_network(123, FuzzProfile())
        second, _ = fuzz_network(123, FuzzProfile())
        assert first.ncp_names == second.ncp_names
        assert [
            (link.name, link.bandwidth, link.failure_probability)
            for link in first.links
        ] == [
            (link.name, link.bandwidth, link.failure_probability)
            for link in second.links
        ]


class TestFuzzGraph:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pinned_to_world_ncps(self, seed):
        generator = ensure_rng(seed)
        network, _ = fuzz_network(generator, FuzzProfile.quick())
        graph, shape = fuzz_graph(generator, network, FuzzProfile.quick())
        assert shape in GRAPH_SHAPES
        pins = {
            ct.pinned_host for ct in graph.cts if ct.pinned_host is not None
        }
        assert pins and pins <= set(network.ncp_names)


class TestFuzzWorld:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_worlds_are_oracle_clean(self, seed):
        world = fuzz_world(seed, FuzzProfile.quick())
        assert lint_scenario_dict(world.doc) == []
        assert world.family in NETWORK_FAMILIES
        assert world.shape in GRAPH_SHAPES

    def test_same_seed_same_doc(self):
        assert fuzz_world(42).doc == fuzz_world(42).doc

    def test_spec_round_trips_the_doc(self):
        world = fuzz_world(7)
        rebuilt = scenario_to_dict(
            world.spec.name, world.spec.network, world.spec.graph
        )
        assert rebuilt["network"] == world.doc["network"]
        assert rebuilt["application"] == world.doc["application"]


class TestFuzzRequest:
    def test_stream_mixes_gr_and_be(self):
        generator = ensure_rng(3)
        network, _ = fuzz_network(generator, FuzzProfile.quick())
        kinds = set()
        for index in range(30):
            request = fuzz_request(generator, network, f"app{index}")
            assert isinstance(request, (GRRequest, BERequest))
            kinds.add(type(request).__name__)
            assert request.app_id == f"app{index}"
        assert kinds == {"GRRequest", "BERequest"}

    def test_request_graphs_lint_against_world(self):
        generator = ensure_rng(9)
        network, _ = fuzz_network(generator, FuzzProfile.quick())
        request = fuzz_request(generator, network, "probe")
        doc = scenario_to_dict("probe", network, request.graph)
        assert lint_scenario_dict(doc) == []
