"""Summary statistics shared by the benchmark runner and its tests."""

from __future__ import annotations

import math

# Percentiles a tail may be reported at, and how many samples must lie
# beyond the chosen one for it to mean anything.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of count."""
    return count - math.ceil(q * count / 100)


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    best = None
    for q in TAIL_LADDER:
        if samples_beyond(count, q) >= TAIL_MIN_BEYOND:
            best = q
    return best


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


def frontier(complete: dict[int, bool], start: int = 2) -> int:
    """Largest N such that every index start..N is present and complete;
    start - 1 when start itself is not."""
    n = start
    while complete.get(n, False):
        n += 1
    return n - 1
