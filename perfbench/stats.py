"""Summary statistics for benchmark timings."""

from __future__ import annotations

import math
import statistics

from scipy.special import betainc


def median(values) -> float:
    return float(statistics.median(values))


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the order
    statistics.  A workload's call times form clusters with gaps between them;
    the sample median jumps across a gap when two calls near the middle swap
    rank, this estimate moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2.0
    cdf = betainc(a, a, [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf[:-1], cdf[1:], ordered)))


def percentile(values, p: float, min_beyond: int = 10) -> float | None:
    """Nearest-rank p-th percentile, or None when fewer than `min_beyond`
    samples lie beyond it: a tail figure needs ten samples past it to mean
    anything, so p90 needs at least 100 samples."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return float(ordered[rank - 1])
