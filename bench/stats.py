"""Summary statistics for op latencies (standard library only)."""

from __future__ import annotations

import math

# Candidate tail percentiles, lowest first. The reported tail is the highest
# one that still has at least TAIL_MIN_ABOVE samples strictly above it. A run
# makes whole passes over a fixed op mix, so a p90 candidate would become
# eligible only when a fast host fits more passes into the run, and the tail
# would then jump from one op to a dearer one; up to p75, every workload's
# run length keeps the same candidate in every run.
TAIL_PERCENTILES = (50.0, 75.0)
TAIL_MIN_ABOVE = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule) of non-empty values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_latency(values):
    """(value, percentile, samples above) of the tail rule.

    The tail is the highest percentile in TAIL_PERCENTILES with at least
    TAIL_MIN_ABOVE samples strictly above its value. When even the median
    has fewer than that (under 20 samples), the median is reported with the
    count it does have, so the shortfall stays visible in the record.
    """
    chosen = None
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        above = sum(1 for v in values if v > value)
        if chosen is None or above >= TAIL_MIN_ABOVE:
            chosen = (value, p, above)
        if above < TAIL_MIN_ABOVE:
            break
    return chosen
