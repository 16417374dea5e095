"""Order statistics for benchmark samples (numpy only).

A timing is reported as a median and the highest percentile that still
has at least :data:`MIN_TAIL_SAMPLES` samples beyond it; a percentile
with fewer is refused, because it is then one or two slow calls and not
a property of the program.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence

import numpy as np

#: Samples that must lie beyond a percentile for it to be reported.
MIN_TAIL_SAMPLES = 10

#: Tail percentiles tried, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by the nearest-rank rule:
    the smallest sample with at least ``q`` percent of samples at or
    below it.  Always one of the samples, never interpolated."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * ordered.size))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``q``-th percentile's rank."""
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float) -> float:
    """:func:`nearest_rank`, refusing a percentile that has fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond it."""
    beyond = samples_beyond(len(values), q)
    if q > 50.0 and beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return nearest_rank(values, q)


class Tail(NamedTuple):
    """A reported tail: which percentile, its value, and the sample count."""

    q: float
    value: float
    n: int


def tail(values: Sequence[float], at_most: float = 99.9) -> Tail:
    """The highest allowed percentile not above ``at_most``.

    Falls back to the median when even the lowest candidate has too few
    samples beyond it, so a caller always gets a number and always sees
    which percentile it is.
    """
    for q in TAIL_CANDIDATES:
        if q <= at_most and samples_beyond(len(values), q) >= MIN_TAIL_SAMPLES:
            return Tail(q, nearest_rank(values, q), len(values))
    return Tail(50.0, nearest_rank(values, 50.0), len(values))


def median(values: Sequence[float]) -> float:
    """Plain median (mean of the two middle samples when even)."""
    if len(values) == 0:
        raise ValueError("median of an empty sample")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def p50_of_rounds(rounds: Sequence[Sequence[float]]) -> float:
    """Median over rounds of each round's median latency.  A burst of
    interference shorter than half a run moves neither median."""
    return median([nearest_rank(r, 50.0) for r in rounds if len(r)])


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the run-to-run
    spread the benchmark's bounds are judged against."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf
