"""Percentiles with their sample counts, and run-to-run spread."""

import math
import statistics

#: A percentile is reported as supported only when at least this many
#: samples lie beyond it.
MIN_BEYOND = 10


def _rank(q, count):
    """1-based nearest rank of the q-th percentile among ``count``."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


def percentile(samples, q):
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100], got %r" % q)
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


def supported(q, count, min_beyond=MIN_BEYOND):
    """True when ``count`` samples leave ``min_beyond`` beyond the q-th."""
    return count - _rank(q, count) >= min_beyond


def highest_supported(count, candidates=(99.9, 99.0, 90.0, 50.0),
                      min_beyond=MIN_BEYOND):
    """The highest candidate percentile ``count`` samples support, or None."""
    for q in candidates:
        if supported(q, count, min_beyond):
            return q
    return None


def latency_summary(seconds):
    """p50/p90/p99 in ms, the sample count, and the highest supported q."""
    return {"p50_ms": 1e3 * percentile(seconds, 50),
            "p90_ms": 1e3 * percentile(seconds, 90),
            "p99_ms": 1e3 * percentile(seconds, 99),
            "samples": len(seconds),
            "tail_q": highest_supported(len(seconds))}


def median(values):
    return statistics.median(values)


def iqr(values):
    """Distance between the first and third quartile (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first
