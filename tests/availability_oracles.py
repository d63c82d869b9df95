"""Reference forms of Eq. (7) that the availability tests compare against.

Deliberately naive: each enumerates every state instead of pruning, and
none shares code with :mod:`repro.core.availability`.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repro.core.availability import PathProfile
from repro.core.network import Network


def _meets(rate: float, min_rate: float) -> bool:
    return rate >= min_rate - 1e-9 * max(1.0, min_rate)


def enumerated_min_rate_availability(
    network: Network, profiles: Sequence[PathProfile], min_rate: float
) -> float:
    """Eq. (7) by enumerating the up/down state of every fallible element."""
    fallible = sorted(
        {e for p in profiles for e in p.elements if network.failure_probability(e) > 0.0}
    )
    total = 0.0
    for states in itertools.product((True, False), repeat=len(fallible)):
        up = dict(zip(fallible, states))
        probability = 1.0
        for element, on in up.items():
            pf = network.failure_probability(element)
            probability *= 1.0 - pf if on else pf
        rate = sum(p.rate for p in profiles if all(up.get(e, True) for e in p.elements))
        if _meets(rate, min_rate):
            total += probability
    return total


def subset_sum_min_rate_availability(
    up_probabilities: Sequence[float], rates: Sequence[float], min_rate: float
) -> float:
    """The paper's subset-sum form of Eq. (7).

    Sums, over every subset of paths whose rates reach ``min_rate``, the
    probability that exactly those paths work.  Exact for element-disjoint
    paths; an overestimate when paths share an element (the shared failure
    is counted as independent per path).
    """
    total = 0.0
    for states in itertools.product((True, False), repeat=len(rates)):
        probability = 1.0
        for p, on in zip(up_probabilities, states):
            probability *= p if on else 1.0 - p
        if _meets(sum(r for r, on in zip(rates, states) if on), min_rate):
            total += probability
    return total


def inclusion_exclusion_any_path(
    network: Network, paths: Sequence[frozenset[str]]
) -> float:
    """P(at least one path fully up) by inclusion–exclusion over path subsets.

    The intersection of "path s is up" over a subset is "every element of
    the subset's union is up", a plain product of up-probabilities.
    """
    total = 0.0
    for size in range(1, len(paths) + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for combo in itertools.combinations(paths, size):
            probability = 1.0
            for element in frozenset().union(*combo):
                probability *= 1.0 - network.failure_probability(element)
            total += sign * probability
    return total
