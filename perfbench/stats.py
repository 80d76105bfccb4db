"""Small statistics shared by the benchmark, its spread check and its tests."""
from __future__ import annotations

import math
import statistics
from typing import NamedTuple

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: Below this a relative error is rounding; err_digits saturates there.
REL_FLOOR = 2.0**-52


class Sample(NamedTuple):
    """One timed request: its slot in the pool, sweep points, seconds, traced, passed."""

    slot: int
    points: int
    seconds: float
    traced: bool
    ok: bool


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples). With n sorted samples the value is
    the (n - beyond)-th smallest, so exactly ``beyond`` samples rank above
    it, and its percentile is 100 (n - beyond) / n. Raises ValueError when
    there are not more than ``beyond`` samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def err_digits(worst_rel: float) -> float:
    """-log10 of the worst relative error, floored at double rounding."""
    return -math.log10(max(worst_rel, REL_FLOOR))


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def good_points_per_s(samples) -> float:
    """Points of the requests that passed, per second of all requests; 0 with no time."""
    total = sum(s.seconds for s in samples)
    return sum(s.points for s in samples if s.ok) / total if total > 0 else 0.0


def trace_overhead(samples):
    """Median over pool slots of traced over untraced median seconds, minus 1.

    Each slot is compared with itself, so inputs of different cost do not
    read as overhead. None when no slot ran both ways.
    """
    ratios = []
    for slot in sorted({s.slot for s in samples}):
        traced = [s.seconds for s in samples if s.slot == slot and s.traced]
        untraced = [s.seconds for s in samples if s.slot == slot and not s.traced]
        if traced and untraced:
            ratios.append(statistics.median(traced) / statistics.median(untraced))
    return statistics.median(ratios) - 1.0 if ratios else None
