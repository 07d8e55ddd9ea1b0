"""Small statistics helpers shared by the runner and the steadiness check."""

import math
import statistics


def percentile(values, q):
    """q-th percentile (0..100) with linear interpolation between ranks.

    The same definition as numpy's default: position (n - 1) * q / 100 in
    the sorted sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values)


def mean_of(values):
    """Arithmetic mean, 0 for an empty sample."""
    return statistics.fmean(values) if values else 0.0


def ratio(numerator, denominator):
    """numerator / denominator, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the median.

    Uses statistics.quantiles(values, n=4), the definition the benchmark's
    acceptance check applies to ten seeded runs.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf
