"""Unit tests for the CSR-compiled network kernels (``repro.core.arrays``).

Covers the compilation cache, the frozen-array contract (compiled CSR
arrays are immutable), residual-array production from live views,
the vectorized Eq.-(3) weight pass, the relaxation loop
and the all-pairs width table.
"""

from __future__ import annotations

import math

import pytest

from repro.core.arrays import (
    CompiledNetwork,
    all_pairs_widths,
    compile_network,
    link_residuals,
    link_weights,
    run_widest,
)
from repro.core.network import NCP, Link, Network, as_directed
from repro.core.placement import CapacityView
from repro.core.taskgraph import BANDWIDTH
from repro.perf import counters
from tests.routing_oracles import link_weight


def _diamond() -> Network:
    ncps = [NCP("a"), NCP("b"), NCP("c"), NCP("d")]
    links = [
        Link("ab", "a", "b", 10.0),
        Link("ac", "a", "c", 4.0),
        Link("bd", "b", "d", 6.0),
        Link("cd", "c", "d", 8.0),
        Link("bc", "b", "c", 2.0),
    ]
    return Network("diamond", ncps, links)


class TestCompileNetwork:
    def test_csr_matches_forward_links(self):
        network = _diamond()
        compiled = compile_network(network)
        assert compiled.node_names == network.ncp_names
        assert compiled.link_names == network.link_names
        for name in network.ncp_names:
            node = compiled.node_index[name]
            start = int(compiled.fwd_offsets[node])
            end = int(compiled.fwd_offsets[node + 1])
            expanded = [
                (compiled.node_names[int(t)], compiled.link_names[int(l)])
                for t, l in zip(
                    compiled.fwd_targets[start:end],
                    compiled.fwd_link_ids[start:end],
                )
            ]
            expected = [
                (link.other(name), link.name)
                for link in network.forward_links(name)
            ]
            assert expanded == expected

    def test_tie_rank_is_lexicographic_name_rank(self):
        network = Network(
            "n",
            [NCP("zeta"), NCP("alpha"), NCP("mid")],
            [Link("l1", "zeta", "alpha", 1.0), Link("l2", "alpha", "mid", 1.0)],
        )
        compiled = compile_network(network)
        ranks = {
            name: int(compiled.tie_rank[compiled.node_index[name]])
            for name in network.ncp_names
        }
        assert ranks == {"alpha": 0, "mid": 1, "zeta": 2}

    def test_compilation_is_cached_per_network(self):
        counters.reset()
        network = _diamond()
        first = compile_network(network)
        second = compile_network(network)
        assert first is second
        assert counters.get("arrays.compile_miss") == 1
        assert counters.get("arrays.compile_hit") == 1
        # A distinct (even identical-topology) network compiles separately.
        other = compile_network(_diamond())
        assert other is not first
        assert counters.get("arrays.compile_miss") == 2

    def test_undirected_backward_aliases_forward(self):
        compiled = compile_network(_diamond())
        assert compiled.bwd_offsets is compiled.fwd_offsets
        assert compiled.bwd_targets is compiled.fwd_targets
        assert compiled.bwd_link_ids is compiled.fwd_link_ids

    def test_directed_backward_is_distinct(self):
        directed = as_directed(_diamond())
        compiled = compile_network(directed)
        assert compiled.directed
        assert compiled.bwd_targets is not compiled.fwd_targets
        # Backward expansion of "d" sees the links pointing *into* d.
        node = compiled.node_index["d"]
        start = int(compiled.bwd_offsets[node])
        end = int(compiled.bwd_offsets[node + 1])
        # as_directed splits each undirected link into a > and a < twin;
        # the links pointing *into* d are the forward twins of bd/cd.
        into_d = {
            compiled.link_names[int(l)]
            for l in compiled.bwd_link_ids[start:end]
        }
        assert into_d == {"bd>", "cd>"}

    def test_compiled_arrays_are_frozen(self):
        """Every array on the compiled topology is read-only."""
        compiled = compile_network(_diamond())
        arrays = [
            compiled.tie_rank,
            compiled.base_bandwidth,
            compiled.fwd_offsets,
            compiled.fwd_targets,
            compiled.fwd_link_ids,
            compiled.bwd_offsets,
            compiled.bwd_targets,
            compiled.bwd_link_ids,
        ]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_compiled_network_is_a_frozen_dataclass(self):
        compiled = compile_network(_diamond())
        assert isinstance(compiled, CompiledNetwork)
        with pytest.raises(AttributeError):
            compiled.network_name = "other"  # type: ignore[misc]


class TestResidualArrays:
    def test_defaults_to_raw_bandwidths(self):
        network = _diamond()
        compiled = compile_network(network)
        residual = link_residuals(compiled, CapacityView(network))
        for name in network.link_names:
            assert residual[compiled.link_index[name]] == network.link(name).bandwidth

    def test_reflects_view_overrides_and_is_memoized_by_version(self):
        network = _diamond()
        compiled = compile_network(network)
        caps = CapacityView(network)
        first = link_residuals(compiled, caps)
        assert link_residuals(compiled, caps) is first  # unmutated: cached
        assert not first.flags.writeable
        caps.override("ab", BANDWIDTH, 1.5)
        second = link_residuals(compiled, caps)
        assert second is not first
        assert second[compiled.link_index["ab"]] == 1.5
        assert first[compiled.link_index["ab"]] == 10.0  # old array untouched


class TestLinkWeights:
    def test_matches_per_edge_link_weight(self):
        network = _diamond()
        compiled = compile_network(network)
        caps = CapacityView(network)
        caps.override("bc", BANDWIDTH, 0.5)
        loads = {"ab": 3.0, "cd": 0.0}
        residual = link_residuals(compiled, caps)
        weights = link_weights(compiled, residual, 2.0, loads)
        for name in network.link_names:
            expected = link_weight(network, caps, name, 2.0, loads)
            assert weights[compiled.link_index[name]] == expected

    def test_zero_megabits_without_loads_is_all_inf(self):
        network = _diamond()
        compiled = compile_network(network)
        residual = link_residuals(compiled, CapacityView(network))
        weights = link_weights(compiled, residual, 0.0)
        assert all(w == math.inf for w in weights.tolist())

    def test_nonpositive_denominator_is_inf(self):
        network = _diamond()
        compiled = compile_network(network)
        residual = link_residuals(compiled, CapacityView(network))
        weights = link_weights(compiled, residual, 0.0, {"ab": 5.0})
        assert weights[compiled.link_index["bc"]] == math.inf  # 0 + no load
        assert weights[compiled.link_index["ab"]] == 10.0 / 5.0


class TestRunWidest:
    def test_returns_native_python_types(self):
        network = _diamond()
        compiled = compile_network(network)
        residual = link_residuals(compiled, CapacityView(network))
        weights = link_weights(compiled, residual, 2.0)
        widths, prev_node, prev_link = run_widest(
            compiled, weights, compiled.node_index["a"]
        )
        assert all(type(w) is float for w in widths)
        assert all(type(p) is int for p in prev_node)
        assert all(type(l) is int for l in prev_link)
        assert widths[compiled.node_index["a"]] == math.inf

    def test_early_exit_matches_full_run_for_dst(self):
        network = _diamond()
        compiled = compile_network(network)
        residual = link_residuals(compiled, CapacityView(network))
        weights = link_weights(compiled, residual, 2.0)
        a, d = compiled.node_index["a"], compiled.node_index["d"]
        full = run_widest(compiled, weights, a)
        point = run_widest(compiled, weights, a, dst=d)
        assert point[0][d] == full[0][d]
        assert point[1][d] == full[1][d]
        assert point[2][d] == full[2][d]


class TestAllPairsWidths:
    def test_rows_and_columns_on_a_directed_split_network(self):
        """Row = forward widths from a node, column = widths into it."""
        network = Network(
            "di",
            [NCP("a"), NCP("b"), NCP("c"), NCP("z")],  # z is isolated
            [
                Link("ab", "a", "b", 8.0),
                Link("bc", "b", "c", 3.0),
                Link("ca", "c", "a", 5.0),
            ],
            directed=True,
        )
        compiled = compile_network(network)
        residual = link_residuals(compiled, CapacityView(network))
        table = all_pairs_widths(compiled, link_weights(compiled, residual, 1.0))
        inf = math.inf
        assert table.tolist() == [
            [inf, 8.0, 3.0, -inf],  # a -> b direct, a -> c through bc
            [3.0, inf, 3.0, -inf],  # b -> a only around the cycle
            [5.0, 5.0, inf, -inf],  # c -> b through ca, ab
            [-inf, -inf, -inf, inf],
        ]

    def test_antiparallel_links_seed_their_own_direction(self):
        """a->b and b->a are two links; each seeds only its own cell."""
        network = Network(
            "anti",
            [NCP("a"), NCP("b"), NCP("c")],
            [
                Link("ab", "a", "b", 8.0),
                Link("ba", "b", "a", 2.0),
                Link("bc", "b", "c", 5.0),
                Link("cb", "c", "b", 9.0),
                Link("ac", "a", "c", 1.0),
            ],
            directed=True,
        )
        compiled = compile_network(network)
        assert len(set(compiled.fwd_pairs.tolist())) == compiled.n_links
        residual = link_residuals(compiled, CapacityView(network))
        table = all_pairs_widths(compiled, link_weights(compiled, residual, 1.0))
        inf = math.inf
        assert table.tolist() == [
            [inf, 8.0, 5.0],  # a -> c wider through b than direct
            [2.0, inf, 5.0],
            [2.0, 9.0, inf],  # c -> a only through the narrow ba
        ]
