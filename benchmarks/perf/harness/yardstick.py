"""A fixed reference computation timed beside every round.

On a shared sandbox the machine's speed itself drifts: over minutes the
same code runs 30-80% slower, then recovers, whatever the process does
(measured: a p50 spread of 25% over 20 windows of unchanged code).  No
statistic inside one run can remove a slowdown that covers the run.

The yardstick is a few milliseconds of work shaped like the program's:
float32 blocks widened to float64, a distance reduction, a threshold
filter and a small Python sort, cycling through a working set larger
than the private caches.  It is timed at both ends of every round (and
at the seams inside a long one), and the gated timing metrics are reported *relative to it* (a latency in
yardstick units, operations per yardstick unit of time).  The same
stretch then slows both and the ratio holds (the 25% above becomes 6-8%).
The wall-clock values are still reported, ungated.  Set-up time is
scaled the same way (see :attr:`Yardstick.NOMINAL_UNIT_S`): unscaled, the
medians of two sets of ten runs differed by up to 33%.

The yardstick never touches the program under test, so a change to the
program cannot move it; a change to this file re-bases every ratio and
needs the baseline re-measured.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

_BLOCKS = 128  # x 96 kB = 12 MB, beyond the private caches
_BLOCK_ROWS = 1000
_DIMENSIONS = 24
_BLOCKS_PER_UNIT = 32
_STRIDE = 5


class Yardstick:
    SAMPLES = 3  # units per tick, about 10 ms

    #: What a unit takes on this sandbox when nothing disturbs it.
    #: ``setup_s`` must be seconds, so it cannot be a ratio: each set-up's
    #: wall seconds are scaled by this over the unit time measured around
    #: it, which makes them seconds at the machine's undisturbed speed.
    NOMINAL_UNIT_S = 0.0029

    def __init__(self) -> None:
        rng = np.random.default_rng(20050405)
        self._blocks = [
            rng.standard_normal((_BLOCK_ROWS, _DIMENSIONS), dtype=np.float32)
            for _ in range(_BLOCKS)
        ]
        self._query = rng.standard_normal(_DIMENSIONS)
        self._cursor = 0

    def unit(self) -> float:
        """Host seconds of one unit of the reference computation."""
        start = time.perf_counter()
        for step in range(_BLOCKS_PER_UNIT):
            block = self._blocks[(self._cursor + step * _STRIDE) % _BLOCKS]
            diff = block.astype(np.float64) - self._query
            distance = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            near = np.flatnonzero(distance <= 7.0)  # about half the rows
            sorted((float(distance[row]), int(row)) for row in near[:64])
        self._cursor = (self._cursor + _BLOCKS_PER_UNIT * _STRIDE) % _BLOCKS
        return time.perf_counter() - start

    def sample(self) -> List[float]:
        return [self.unit() for _ in range(self.SAMPLES)]
