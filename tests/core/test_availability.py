"""Unit tests for availability analysis under element failures."""

from __future__ import annotations

import math
import time

import pytest

from repro.core.assignment import sparcle_assign
from repro.core.availability import (
    MAX_EXACT_GROUPS,
    PathProfile,
    _groups,
    _monte_carlo,
    any_path_availability,
    expected_rate,
    min_rate_availability,
    path_availability,
    worst_case_paths,
)
from repro.core.network import NCP, Link, Network
from repro.core.placement import CapacityView
from repro.core.scheduler import GRRequest, SparcleScheduler
from repro.workloads.scenarios import (
    GraphKind,
    TopologyKind,
    random_network,
    random_task_graph,
)
from tests.availability_oracles import (
    enumerated_min_rate_availability,
    inclusion_exclusion_any_path,
    subset_sum_min_rate_availability,
)


def failing_star(pf_link: float = 0.02, n: int = 4) -> Network:
    return Network(
        "s",
        [NCP("hub", {"cpu": 100.0})]
        + [NCP(f"n{k}", {"cpu": 100.0}) for k in range(1, n + 1)],
        [
            Link(f"l{k}", "hub", f"n{k}", 10.0, failure_probability=pf_link)
            for k in range(1, n + 1)
        ],
    )


def star_with(pfs: list[float]) -> Network:
    """A star whose link ``l{k}`` (k from 1) fails with ``pfs[k - 1]``."""
    return Network(
        "s",
        [NCP("hub")] + [NCP(f"n{k}") for k in range(1, len(pfs) + 1)],
        [
            Link(f"l{k}", "hub", f"n{k}", 10.0, failure_probability=pf)
            for k, pf in enumerate(pfs, start=1)
        ],
    )


class TestSinglePath:
    def test_product_over_elements(self):
        net = failing_star(0.1)
        elements = frozenset({"l1", "l2"})
        assert path_availability(net, elements) == pytest.approx(0.9 * 0.9)

    def test_reliable_elements_are_free(self):
        net = failing_star(0.1)
        assert path_availability(net, frozenset({"hub", "n1"})) == pytest.approx(1.0)

    def test_empty_path_is_certain(self):
        net = failing_star(0.5)
        assert path_availability(net, frozenset()) == 1.0


class TestAnyPathAvailability:
    def test_no_paths_is_zero(self):
        assert any_path_availability(failing_star(), []) == 0.0

    def test_disjoint_paths_independent(self):
        net = failing_star(0.2)
        paths = [frozenset({"l1"}), frozenset({"l2"})]
        # 1 - 0.2*0.2
        assert any_path_availability(net, paths) == pytest.approx(1 - 0.04)

    def test_identical_paths_add_nothing(self):
        net = failing_star(0.2)
        paths = [frozenset({"l1"}), frozenset({"l1"})]
        assert any_path_availability(net, paths) == pytest.approx(0.8)

    def test_overlapping_paths(self):
        net = failing_star(0.1)
        # Both paths use l1; they differ in a second link.
        paths = [frozenset({"l1", "l2"}), frozenset({"l1", "l3"})]
        # P(l1 up) * P(l2 or l3 up) = 0.9 * (1 - 0.01)
        assert any_path_availability(net, paths) == pytest.approx(0.9 * 0.99)

    def test_matches_exact_enumeration(self):
        net = failing_star(0.3)
        paths = [frozenset({"l1", "l2"}), frozenset({"l2", "l3"}),
                 frozenset({"l3", "l4"})]
        profiles = [PathProfile(p, 1.0) for p in paths]
        # P(any up) == P(total rate >= 1) when every path has rate 1.
        value = any_path_availability(net, paths)
        assert value == pytest.approx(
            enumerated_min_rate_availability(net, profiles, 1.0), abs=1e-12
        )
        assert value == pytest.approx(
            inclusion_exclusion_any_path(net, paths), abs=1e-12
        )


class TestRateDistribution:
    def test_simple_two_path_distribution(self):
        net = failing_star(0.1)
        profiles = [PathProfile(frozenset({"l1"}), 2.0),
                    PathProfile(frozenset({"l2"}), 1.0)]
        # Rate 3 w.p. .81, 2 w.p. .09, 1 w.p. .09, 0 w.p. .01: Eq. (7) at
        # each level is the distribution's upper tail.
        assert min_rate_availability(net, profiles, 3.0) == pytest.approx(0.81)
        assert min_rate_availability(net, profiles, 2.0) == pytest.approx(0.90)
        assert min_rate_availability(net, profiles, 1.0) == pytest.approx(0.99)
        assert min_rate_availability(net, profiles, 0.5) == pytest.approx(0.99)
        assert min_rate_availability(net, profiles, 0.0) == 1.0

    def test_too_many_elements_exact(self):
        # More fallible links than the group limit, on two disjoint paths:
        # two groups, so every level of the tail is exact, not sampled.
        lengths = (11, 13)
        assert sum(lengths) > MAX_EXACT_GROUPS
        net = failing_star(0.05, n=sum(lengths))
        first = frozenset(f"l{k}" for k in range(1, lengths[0] + 1))
        second = frozenset(f"l{k}" for k in range(lengths[0] + 1, sum(lengths) + 1))
        profiles = [PathProfile(first, 2.0), PathProfile(second, 1.0)]
        a, b = (0.95**length for length in lengths)
        assert len(_groups(net, profiles)) == 2
        assert min_rate_availability(net, profiles, 3.0) == pytest.approx(
            a * b, abs=1e-12
        )
        assert min_rate_availability(net, profiles, 2.0) == pytest.approx(a, abs=1e-12)
        assert min_rate_availability(net, profiles, 1.0) == pytest.approx(
            a + b - a * b, abs=1e-12
        )


class TestMinRateAvailability:
    def test_paper_fig10b_scenario(self):
        """Rates 2.67/1.2/0.42, R=2.7: need path 1 plus path 2 or 3."""
        net = Network(
            "f",
            [NCP("a"), NCP("b"), NCP("c"), NCP("d")],
            [
                Link("p1", "a", "b", 10.0, failure_probability=0.1),
                Link("p2", "b", "c", 10.0, failure_probability=0.1),
                Link("p3", "c", "d", 10.0, failure_probability=0.1),
            ],
        )
        profiles = [
            PathProfile(frozenset({"p1"}), 2.67),
            PathProfile(frozenset({"p2"}), 1.2),
            PathProfile(frozenset({"p3"}), 0.42),
        ]
        # P(p1 up AND (p2 or p3 up)) = 0.9 * (1 - 0.01) = 0.891
        value = min_rate_availability(net, profiles, 2.7)
        assert value == pytest.approx(0.9 * 0.99)

    def test_threshold_equality_counts(self):
        net = failing_star(0.25)
        profiles = [PathProfile(frozenset({"l1"}), 2.0)]
        assert min_rate_availability(net, profiles, 2.0) == pytest.approx(0.75)

    def test_zero_min_rate_is_certain(self):
        net = failing_star(0.25)
        profiles = [PathProfile(frozenset({"l1"}), 2.0)]
        assert min_rate_availability(net, profiles, 0.0) == 1.0

    def test_no_paths(self):
        net = failing_star()
        assert min_rate_availability(net, [], 1.0) == 0.0
        assert min_rate_availability(net, [], 0.0) == 1.0

    def test_negative_min_rate_rejected(self):
        net = failing_star()
        with pytest.raises(ValueError, match="non-negative"):
            min_rate_availability(net, [], -1.0)

    def test_monte_carlo_close_to_exact(self):
        net = failing_star(0.15)
        profiles = [
            PathProfile(frozenset({"l1", "l2"}), 2.0),
            PathProfile(frozenset({"l2", "l3"}), 1.5),
            PathProfile(frozenset({"l4"}), 1.0),
        ]
        exact = min_rate_availability(net, profiles, 2.5)
        mc = _monte_carlo(
            _groups(net, profiles), [p.rate for p in profiles], 2.5 - 1e-9
        )
        assert mc == pytest.approx(exact, abs=5e-3)

    def test_monte_carlo_with_reliable_elements_only(self):
        net = failing_star(0.0)
        profiles = [PathProfile(frozenset({"l1"}), 2.0)]
        groups = _groups(net, profiles)
        assert groups == {}
        assert _monte_carlo(groups, [2.0], 1.0) == 1.0


class TestDisjointFormula:
    """The paper's subset-sum form is the walk with one group per path."""

    def test_matches_exact_for_disjoint_paths(self):
        net = failing_star(0.2)
        profiles = [
            PathProfile(frozenset({"l1"}), 2.0),
            PathProfile(frozenset({"l2"}), 1.0),
        ]
        exact = min_rate_availability(net, profiles, 2.0)
        paper = subset_sum_min_rate_availability([0.8, 0.8], [2.0, 1.0], 2.0)
        assert exact == pytest.approx(paper, abs=1e-12)

    def test_overestimates_for_shared_elements(self):
        net = failing_star(0.2)
        shared = frozenset({"l1"})
        profiles = [PathProfile(shared, 1.0), PathProfile(shared, 1.0)]
        exact = min_rate_availability(net, profiles, 1.0)
        paper = subset_sum_min_rate_availability(
            [path_availability(net, p.elements) for p in profiles], [1.0, 1.0], 1.0
        )
        assert exact == pytest.approx(0.8)
        assert paper > exact  # treats the shared link as two independent ones

    def test_pruned_walk_matches_brute_force(self):
        up = [0.9, 0.8, 0.7, 0.95, 0.6, 0.85, 0.75, 0.9, 0.5, 0.99]
        rates = [2.0, 1.5, 0.7, 3.1, 0.2, 1.1, 0.9, 2.4, 0.05, 1.3]
        net = star_with([1.0 - p for p in up])
        profiles = [
            PathProfile(frozenset({f"l{k}"}), rate)
            for k, rate in enumerate(rates, start=1)
        ]
        for min_rate in (0.0, 1.0, 3.0, 6.5, sum(rates), sum(rates) + 1.0):
            assert min_rate_availability(net, profiles, min_rate) == pytest.approx(
                subset_sum_min_rate_availability(up, rates, min_rate), abs=1e-12
            ), min_rate

    def test_pruning_collapses_the_walk_at_the_size_limit(self):
        # 2^22 branches would take minutes; the two prunes make "any one
        # path suffices" and "every path is needed" linear walks.
        n = MAX_EXACT_GROUPS
        net = failing_star(0.1, n=n)
        profiles = [PathProfile(frozenset({f"l{k}"}), 1.0) for k in range(1, n + 1)]
        start = time.perf_counter()
        any_one = min_rate_availability(net, profiles, 1.0)
        every = min_rate_availability(net, profiles, float(n))
        assert time.perf_counter() - start < 1.0
        assert any_one == pytest.approx(1.0 - 0.1**n)
        assert every == pytest.approx(0.9**n, rel=1e-12)

    def test_too_many_paths_sampled(self):
        # One more single-link path than the exact walk takes: the seeded
        # estimate answers instead of an error, close to the binomial tail.
        n = MAX_EXACT_GROUPS + 1
        net = failing_star(0.5, n=n)
        profiles = [PathProfile(frozenset({f"l{k}"}), 1.0) for k in range(1, n + 1)]
        value = min_rate_availability(net, profiles, 11.0)
        assert value == _monte_carlo(_groups(net, profiles), [1.0] * n, 11.0 - 1e-8)
        tail = sum(math.comb(n, k) for k in range(11, n + 1)) / 2.0**n
        assert value == pytest.approx(tail, abs=0.01)

    def test_zero_paths_edge_cases(self):
        net = failing_star()
        assert min_rate_availability(net, [], 0.0) == 1.0
        assert min_rate_availability(net, [], 1.0) == 0.0
        # Paths on reliable elements only form zero groups.
        reliable = [PathProfile(frozenset({"hub", "n1"}), 2.0)]
        assert min_rate_availability(net, reliable, 2.0) == 1.0
        assert min_rate_availability(net, reliable, 2.5) == 0.0


class TestGroups:
    def test_elements_merge_by_path_incidence(self):
        net = failing_star(0.1, n=9)
        shared = {f"l{k}" for k in range(1, 6)}
        profiles = [
            PathProfile(frozenset(shared | {"l6", "l7"}), 1.0),
            PathProfile(frozenset(shared | {"l8", "l9", "hub"}), 1.0),
        ]
        # Bit i of a signature is profiles[i]; the reliable hub forms none.
        assert _groups(net, profiles) == pytest.approx(
            {0b11: 0.9**5, 0b01: 0.9**2, 0b10: 0.9**2}
        )

    def test_many_fallible_links_few_groups_is_exact(self):
        # Three element-disjoint paths over 42 fallible links are three
        # groups: exact, where enumerating elements would need 2^42 states.
        lengths = (12, 14, 16)
        net = failing_star(0.02, n=sum(lengths))
        profiles, first = [], 1
        for length, rate in zip(lengths, (2.0, 1.5, 1.0)):
            links = frozenset(f"l{k}" for k in range(first, first + length))
            profiles.append(PathProfile(links, rate))
            first += length
        a, b, c = (0.98**length for length in lengths)
        # Any two of the three paths carry R = 2.5.
        closed_form = a * b + a * c + b * c - 2.0 * a * b * c
        assert len(_groups(net, profiles)) == 3
        assert min_rate_availability(net, profiles, 2.5) == pytest.approx(
            closed_form, abs=1e-12
        )

    def test_gr_admission_on_a_fallible_mesh_is_fast(self):
        network = random_network(
            TopologyKind.FULL, 1207, n_ncps=12,
            ncp_failure_probability=0.03, link_failure_probability=0.02,
        )
        names = sorted(network.ncp_names)
        graph = random_task_graph(GraphKind.LINEAR, 2).with_pins(
            {"source": names[2], "sink": names[1]}, name="qoe"
        )
        solo = sparcle_assign(graph, network, CapacityView(network)).rate
        request = GRRequest("qoe", graph, min_rate=0.3 * solo,
                            min_rate_availability=0.7, max_paths=3)
        start = time.perf_counter()
        decision = SparcleScheduler(network).submit_gr(request)
        assert time.perf_counter() - start < 1.0
        assert decision.accepted
        assert len(decision.placements) == 3
        assert decision.availability >= 0.7


class TestExpectations:
    def test_expected_rate_linearity(self):
        net = failing_star(0.1)
        profiles = [
            PathProfile(frozenset({"l1"}), 2.0),
            PathProfile(frozenset({"l1", "l2"}), 1.0),
        ]
        assert expected_rate(net, profiles) == pytest.approx(2.0 * 0.9 + 1.0 * 0.81)

    def test_worst_case_is_total(self):
        profiles = [PathProfile(frozenset(), 2.0), PathProfile(frozenset(), 0.5)]
        assert worst_case_paths(profiles) == pytest.approx(2.5)
