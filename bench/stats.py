"""Percentiles, spreads and the noise guard shared by the bench files."""

from __future__ import annotations

import statistics
import time
from collections.abc import Sequence
from pathlib import Path

#: A run is marked ``disturbed`` above this calibration drift or this
#: share of the machine used by processes other than server and bench.
DISTURBED_ABOVE = 0.10

_CALIBRATION_LOOPS = 60_000


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values`` (0.0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(len(ordered) * q / 100.0)))
    return ordered[rank]


def median(values: Sequence[float]) -> float:
    """The median (0.0 if empty)."""
    return statistics.median(values) if values else 0.0


def tail_percentile(count: int) -> int:
    """The highest of p95/p90/p75 with >= 10 of ``count`` samples beyond it.

    Never below p75: a slice too short for that still reports its p75.
    """
    for q in (95, 90):
        if count * (100 - q) / 100.0 >= 10:
            return q
    return 75


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes (best of fifteen).

    The loop allocates and hashes as well as counts, because the server's
    work does: a stall of the memory system must show here too.
    """
    best = float("inf")
    for _ in range(15):
        began = time.perf_counter()
        table: dict[int, list[object]] = {}
        for i in range(_CALIBRATION_LOOPS):
            table[i & 4095] = [i, str(i)]
        best = min(best, time.perf_counter() - began)
    return best


def machine_busy_ticks() -> int:
    """Non-idle jiffies of the whole machine so far (``/proc/stat``)."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    ticks = [int(v) for v in fields]
    idle = ticks[3] + (ticks[4] if len(ticks) > 4 else 0)
    return sum(ticks[:8]) - idle
