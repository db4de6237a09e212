"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n, beyond=10):
    """The highest whole percentile with at least ``beyond`` of ``n``
    samples above it, or ``None`` when there are too few samples."""
    if n <= beyond:
        return None
    return math.floor(100.0 * (n - beyond) / n)


def percentile(values, pct):
    """Nearest-rank percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values, beyond=10):
    """``(pct, value)`` at :func:`tail_percentile`; ``(None, None)`` when
    there are too few samples."""
    pct = tail_percentile(len(values), beyond)
    if pct is None:
        return None, None
    return pct, percentile(values, pct)
