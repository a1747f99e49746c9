"""Medians, quartiles and the highest percentile a sample supports."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

#: Percentiles a latency report may name, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the driver's own rule; one value is its own quartiles."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float], better: str = "lower") -> dict:
    """Median, quartiles, n and the best value in the *better* direction.

    Contention on a shared box only ever makes a repetition slower, so
    the best of many short repetitions — the one that met none — is the
    steady estimate of what the program costs; the median is printed
    beside it to show how much contention there was.
    """
    q1, median, q3 = quartiles(values)
    best = max(values) if better == "higher" else min(values)
    return {"best": best, "median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(ordered: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile *p* (0-100) of a sorted sample."""
    if not ordered:
        raise ValueError("no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_supported(n: int, beyond: int = 10) -> float | None:
    """The highest percentile with at least *beyond* samples above it."""
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= beyond - 1e-9:  # 10000 * 0.1% is 10
            best = p
    return best


def latency_summary(values: Sequence[float]) -> dict:
    """Median plus the highest percentile the sample supports."""
    ordered = sorted(values)
    out = {"n": len(ordered), "p50": percentile(ordered, 50.0)}
    top = highest_supported(len(ordered))
    if top is not None:
        out["tail_percentile"] = top
        out["tail"] = percentile(ordered, top)
    return out


def worse_by(reference: float, value: float, better: str) -> float:
    """Share of *reference* by which *value* is worse (negative: better)."""
    if reference == 0:
        return 0.0
    delta = (value - reference) / abs(reference)
    return delta if better == "lower" else -delta
