"""Property-based tests for availability analysis.

The exact walk is checked against the naive reference forms in
``tests/availability_oracles.py``.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.availability import (
    PathProfile,
    _groups,
    _monte_carlo,
    any_path_availability,
    min_rate_availability,
    path_availability,
)
from repro.core.network import NCP, Link, Network
from tests.availability_oracles import (
    enumerated_min_rate_availability,
    inclusion_exclusion_any_path,
    subset_sum_min_rate_availability,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def failing_networks_with_paths(draw, max_links: int = 6):
    """A hub network with fallible links plus random path profiles.

    The hub NCP may fail too; it lies on no path unless drawn into one.
    Rates come from a coarse grid half the time so that subset sums tie
    with each other and with grid thresholds.
    """
    n_links = draw(st.integers(min_value=1, max_value=max_links))
    pfs = [draw(st.floats(0.0, 0.9)) for _ in range(n_links)]
    ncps = [NCP("hub", failure_probability=draw(st.floats(0.0, 0.3)))] + [
        NCP(f"n{k}") for k in range(n_links)
    ]
    links = [
        Link(f"l{k}", "hub", f"n{k}", 1.0, failure_probability=pfs[k])
        for k in range(n_links)
    ]
    network = Network("net", ncps, links)
    elements = ["hub"] + [f"l{k}" for k in range(n_links)]
    n_paths = draw(st.integers(min_value=1, max_value=4))
    profiles = []
    for _ in range(n_paths):
        size = draw(st.integers(min_value=1, max_value=len(elements)))
        members = draw(
            st.lists(
                st.sampled_from(elements),
                min_size=size, max_size=size, unique=True,
            )
        )
        rate = draw(st.floats(0.1, 5.0) | st.sampled_from([0.5, 1.0, 1.5, 2.0]))
        profiles.append(PathProfile(frozenset(members), rate))
    return network, profiles


thresholds = st.floats(0.0, 10.0) | st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.5])


@st.composite
def disjoint_paths(draw):
    """Element-disjoint paths on a star: path i owns its own 1-3 links."""
    lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    pfs = [draw(st.floats(0.0, 0.9)) for _ in range(sum(lengths))]
    network = Network(
        "star",
        [NCP("hub")] + [NCP(f"n{k}") for k in range(len(pfs))],
        [
            Link(f"l{k}", "hub", f"n{k}", 1.0, failure_probability=pf)
            for k, pf in enumerate(pfs)
        ],
    )
    profiles, first = [], 0
    for length in lengths:
        links = frozenset(f"l{k}" for k in range(first, first + length))
        profiles.append(PathProfile(links, draw(st.floats(0.1, 5.0))))
        first += length
    return network, profiles


def fallible_count(network: Network, profiles: list[PathProfile]) -> int:
    used = set().union(*(p.elements for p in profiles))
    return sum(1 for e in used if network.failure_probability(e) > 0.0)


class TestDistributionProperties:
    @SETTINGS
    @given(data=failing_networks_with_paths())
    def test_distribution_sums_to_one(self, data):
        """Differencing Eq. (7) over the achievable rates gives a distribution."""
        network, profiles = data
        levels = sorted(
            {
                sum(p.rate for p, on in zip(profiles, states) if on)
                for states in itertools.product((True, False), repeat=len(profiles))
            }
        )
        tail = [min_rate_availability(network, profiles, r) for r in levels] + [0.0]
        masses = [tail[k] - tail[k + 1] for k in range(len(levels))]
        assert tail[0] == 1.0
        assert all(mass >= -1e-12 for mass in masses)
        assert math.isclose(sum(masses), 1.0, rel_tol=1e-9)

    @SETTINGS
    @given(data=failing_networks_with_paths())
    def test_max_rate_is_total(self, data):
        network, profiles = data
        total = sum(p.rate for p in profiles)
        assert min_rate_availability(network, profiles, total * (1 + 1e-6) + 1e-6) == 0.0


class TestMinRateProperties:
    @SETTINGS
    @given(data=failing_networks_with_paths(), threshold=thresholds)
    def test_bounded_probability(self, data, threshold):
        network, profiles = data
        value = min_rate_availability(network, profiles, threshold)
        assert 0.0 <= value <= 1.0

    @SETTINGS
    @given(data=failing_networks_with_paths(),
           low=st.floats(0.0, 5.0), delta=st.floats(0.0, 5.0))
    def test_monotone_in_threshold(self, data, low, delta):
        network, profiles = data
        high_value = min_rate_availability(network, profiles, low + delta)
        low_value = min_rate_availability(network, profiles, low)
        assert high_value <= low_value + 1e-9

    @SETTINGS
    @given(data=failing_networks_with_paths(max_links=15), threshold=thresholds)
    def test_walk_equals_element_enumeration(self, data, threshold):
        network, profiles = data
        assert fallible_count(network, profiles) <= 16
        exact = min_rate_availability(network, profiles, threshold)
        oracle = enumerated_min_rate_availability(network, profiles, threshold)
        assert abs(exact - oracle) <= 1e-12

    @SETTINGS
    @given(data=failing_networks_with_paths(), threshold=st.floats(0.1, 10.0))
    def test_monte_carlo_agrees_with_exact(self, data, threshold):
        network, profiles = data
        exact = min_rate_availability(network, profiles, threshold)
        mc = _monte_carlo(
            _groups(network, profiles), [p.rate for p in profiles],
            threshold - 1e-9 * max(1.0, threshold),
        )
        assert abs(mc - exact) < 0.02

    @SETTINGS
    @given(data=failing_networks_with_paths())
    def test_adding_a_path_never_hurts(self, data):
        network, profiles = data
        if len(profiles) < 2:
            return
        threshold = profiles[0].rate
        fewer = min_rate_availability(network, profiles[:-1], threshold)
        more = min_rate_availability(network, profiles, threshold)
        assert more >= fewer - 1e-9

    @SETTINGS
    @given(data=failing_networks_with_paths(max_links=15))
    def test_group_count_bounded(self, data):
        network, profiles = data
        groups = _groups(network, profiles)
        assert len(groups) <= min(
            fallible_count(network, profiles), 2 ** len(profiles) - 1
        )
        assert all(0 < signature < 2 ** len(profiles) for signature in groups)


class TestAnyPathProperties:
    @SETTINGS
    @given(data=failing_networks_with_paths())
    def test_equals_min_rate_with_min_path_rate(self, data):
        """"At least one path up" == P(rate >= smallest single-path rate)."""
        network, profiles = data
        unit_profiles = [PathProfile(p.elements, 1.0) for p in profiles]
        via_union = any_path_availability(
            network, [p.elements for p in profiles]
        )
        via_rate = min_rate_availability(network, unit_profiles, 1.0)
        assert math.isclose(via_union, via_rate, rel_tol=1e-9, abs_tol=1e-12)

    @SETTINGS
    @given(data=failing_networks_with_paths())
    def test_equals_inclusion_exclusion(self, data):
        network, profiles = data
        paths = [p.elements for p in profiles]
        assert abs(
            any_path_availability(network, paths)
            - inclusion_exclusion_any_path(network, paths)
        ) <= 1e-12

    @SETTINGS
    @given(data=failing_networks_with_paths())
    def test_union_bounds(self, data):
        """max single <= P(union) <= min(1, sum of singles)."""
        network, profiles = data
        singles = [
            any_path_availability(network, [p.elements]) for p in profiles
        ]
        union = any_path_availability(network, [p.elements for p in profiles])
        assert union >= max(singles) - 1e-9
        assert union <= min(1.0, sum(singles)) + 1e-9


class TestDisjointFormulaProperties:
    @SETTINGS
    @given(
        ups=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        threshold=st.floats(0.0, 5.0),
    )
    def test_disjoint_formula_bounded(self, ups, threshold):
        network = Network(
            "star",
            [NCP("hub")] + [NCP(f"n{k}") for k in range(len(ups))],
            [
                Link(f"l{k}", "hub", f"n{k}", 1.0, failure_probability=1.0 - up)
                for k, up in enumerate(ups)
            ],
        )
        profiles = [PathProfile(frozenset({f"l{k}"}), 1.0) for k in range(len(ups))]
        value = min_rate_availability(network, profiles, threshold)
        assert -1e-9 <= value <= 1.0 + 1e-9

    @SETTINGS
    @given(data=disjoint_paths(), threshold=thresholds)
    def test_equals_subset_sum_on_disjoint_paths(self, data, threshold):
        network, profiles = data
        paper = subset_sum_min_rate_availability(
            [path_availability(network, p.elements) for p in profiles],
            [p.rate for p in profiles],
            threshold,
        )
        assert abs(min_rate_availability(network, profiles, threshold) - paper) <= 1e-12
