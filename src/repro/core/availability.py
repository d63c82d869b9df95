"""Availability analysis under independent element failures (Sec. IV-C/D).

Every NCP and link fails independently with its probability ``Pf_j``.  A
task assignment path *works* only when every element it uses is up, so:

* a single path's availability is ``prod over used elements (1 - Pf)``;
* a BE application with several (possibly overlapping) paths is *available*
  when at least one path works;
* a GR application with paths of rates ``r_1..r_k`` meets its min-rate
  requirement ``R`` exactly when the aggregate rate of the *working* paths
  is at least ``R`` — Eq. (7).

Overlap between paths makes path up/down events dependent, yet which paths
work depends only on which fallible elements are up — and two elements
used by exactly the same paths (the same *path-incidence signature*) can
only take paths down together.  One evaluator therefore answers both
questions exactly:

* the fallible elements are merged by signature into independent *groups*
  whose up-probability is the product of their members' — at most
  ``min(#fallible, 2^k - 1)`` groups for ``k`` paths, whatever the size
  of the network;
* a depth-first walk branches over the group states, heaviest group
  first, returning a branch's prefix probability as soon as the paths
  already certain to be up carry ``R`` and dropping it as soon as the
  paths not yet killed cannot.

:func:`min_rate_availability` is that walk; :func:`any_path_availability`
is the same walk with unit rates and ``R = 1``; the paper's subset-sum
form of Eq. (7) is the special case in which every path is its own group.
Past :data:`MAX_EXACT_GROUPS` groups a seeded Monte-Carlo estimate over
the group states takes over.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.network import Network
from repro.core.placement import Placement
from repro.utils.rng import ensure_rng

#: Above this many path-incidence groups the exact walk hands over to a
#: seeded Monte-Carlo estimate.  ``k`` paths form at most ``2^k - 1``
#: groups, so only five or more heavily overlapping paths get here.
MAX_EXACT_GROUPS = 22

#: Monte-Carlo sample count and seed past :data:`MAX_EXACT_GROUPS`; fixed
#: so that an admission decision is a function of its inputs.
_MONTE_CARLO_SAMPLES = 200_000
_MONTE_CARLO_SEED = 0


@dataclass(frozen=True)
class PathProfile:
    """The availability-relevant view of one task assignment path."""

    elements: frozenset[str]
    rate: float

    @classmethod
    def of(cls, placement: Placement, rate: float) -> "PathProfile":
        """Build a profile from a placement and its allocated rate."""
        return cls(placement.used_elements(), rate)


def path_availability(network: Network, elements: frozenset[str] | Placement) -> float:
    """Probability that every element of one path is up."""
    if isinstance(elements, Placement):
        elements = elements.used_elements()
    probability = 1.0
    for element in elements:
        probability *= 1.0 - network.failure_probability(element)
    return probability


def any_path_availability(
    network: Network, paths: Sequence[frozenset[str] | Placement]
) -> float:
    """P(at least one path fully up), exact at any overlap.

    The min-rate walk with every path at unit rate and ``R = 1``.
    """
    profiles = [
        PathProfile(p.used_elements() if isinstance(p, Placement) else frozenset(p), 1.0)
        for p in paths
    ]
    return _eq7(network, profiles, 1.0)


def min_rate_availability(
    network: Network, profiles: Sequence[PathProfile], min_rate: float
) -> float:
    """``P(aggregate rate of working paths >= min_rate)`` — Eq. (7).

    Exact up to :data:`MAX_EXACT_GROUPS` path-incidence groups, a seeded
    Monte-Carlo estimate beyond.  A small tolerance absorbs floating-point
    noise at the threshold so a path whose rate *equals* the requirement
    counts as satisfying it.
    """
    if min_rate < 0:
        raise ValueError(f"min_rate must be non-negative, got {min_rate}")
    return _eq7(network, profiles, min_rate)


def _eq7(network: Network, profiles: Sequence[PathProfile], min_rate: float) -> float:
    """Eq. (7) at ``min_rate`` less the threshold tolerance."""
    threshold = min_rate - 1e-9 * max(1.0, min_rate)
    groups = _groups(network, profiles)
    rates = [profile.rate for profile in profiles]
    if len(groups) > MAX_EXACT_GROUPS:
        return _monte_carlo(groups, rates, threshold)
    return min(_walk(groups, rates, threshold), 1.0)


def _groups(network: Network, profiles: Sequence[PathProfile]) -> dict[int, float]:
    """Up-probability of each path-incidence group, keyed by signature.

    An element's signature is the bitmask of the paths that use it (bit
    ``i`` for ``profiles[i]``).  A group is up iff all its elements are,
    and disjoint element sets fail independently, so the groups are
    independent variables.  Elements that cannot fail form no group.
    """
    signatures: dict[str, int] = {}
    for index, profile in enumerate(profiles):
        for element in profile.elements:
            signatures[element] = signatures.get(element, 0) | 1 << index
    groups: dict[int, float] = {}
    # Sorted so that each group's product, hence the answer, is the same
    # in every process whatever the string hash seed.
    for element in sorted(signatures):
        failure = network.failure_probability(element)
        if failure > 0.0:
            signature = signatures[element]
            groups[signature] = groups.get(signature, 1.0) * (1.0 - failure)
    return groups


def _walk(groups: dict[int, float], rates: Sequence[float], threshold: float) -> float:
    """Exact ``P(working paths carry >= threshold)`` over the group states."""
    def rate_of(paths: int) -> float:
        return sum(r for i, r in enumerate(rates) if paths >> i & 1)

    # Heaviest first makes both prunes bite nearest the root: a heavy
    # group's failure kills the most rate, and deciding it up first
    # completes the paths that carry the most.
    order = sorted(groups.items(), key=lambda item: (-rate_of(item[0]), item[0]))
    # pending[k]: the paths some group k.. still has to decide.
    pending = [0] * (len(order) + 1)
    for k in range(len(order) - 1, -1, -1):
        pending[k] = pending[k + 1] | order[k][0]

    def branch(k: int, alive: int, probability: float) -> float:
        if probability == 0.0:
            return 0.0
        if rate_of(alive & ~pending[k]) >= threshold:
            return probability  # every completion of this prefix meets R
        if rate_of(alive) < threshold:
            return 0.0  # even with every undecided group up, R is out of reach
        signature, up = order[k]
        return branch(k + 1, alive, probability * up) + branch(
            k + 1, alive & ~signature, probability * (1.0 - up)
        )

    return branch(0, (1 << len(rates)) - 1, 1.0)


def _monte_carlo(
    groups: dict[int, float], rates: Sequence[float], threshold: float
) -> float:
    """Seeded estimate of ``P(working paths carry >= threshold)``."""
    signatures = list(groups)
    up = ensure_rng(_MONTE_CARLO_SEED).random(
        (_MONTE_CARLO_SAMPLES, len(signatures))
    ) < np.array(list(groups.values()))
    aggregate = np.zeros(_MONTE_CARLO_SAMPLES)
    for index, rate in enumerate(rates):
        members = [g for g, signature in enumerate(signatures) if signature >> index & 1]
        aggregate += rate * up[:, members].all(axis=1)
    return float(np.mean(aggregate >= threshold))


def expected_rate(network: Network, profiles: Sequence[PathProfile]) -> float:
    """Expected aggregate processing rate under failures.

    Linearity of expectation makes overlap irrelevant here: each path
    contributes ``rate * P(path up)``.
    """
    return sum(p.rate * path_availability(network, p.elements) for p in profiles)


def worst_case_paths(profiles: Sequence[PathProfile]) -> float:
    """Aggregate rate when every path works (the failure-free ceiling)."""
    return math.fsum(p.rate for p in profiles)


def single_points_of_failure(
    paths: Sequence[frozenset[str] | Placement],
) -> frozenset[str]:
    """Elements shared by *every* path — each one alone can kill the app.

    For multipath placements this is the fragility headline: adding paths
    only helps availability outside this set.  With pinned sources/sinks
    the pinned hosts (and, on a star, their access links) typically appear
    here, which is exactly why Fig. 10's availability saturates.
    """
    element_sets = [
        p.used_elements() if isinstance(p, Placement) else frozenset(p)
        for p in paths
    ]
    if not element_sets:
        return frozenset()
    common = set(element_sets[0])
    for elements in element_sets[1:]:
        common &= elements
    return frozenset(common)


def availability_ceiling(
    network: Network, paths: Sequence[frozenset[str] | Placement]
) -> float:
    """An upper bound on any-path availability: P(all shared elements up).

    No number of additional paths can push availability above the product
    of the up-probabilities of the single points of failure.
    """
    return path_availability(network, single_points_of_failure(paths))
