"""Adaptive degradation: a feedback loop from p99 latency to chunk budget.

The paper's central curve — quality rises smoothly with chunks scanned —
is exactly the control surface a latency-bound service needs: the knob
is continuous-ish (one chunk at a time), monotone in both cost and
quality, and safe at every setting (any prefix of the ranked chunk scan
is a valid answer).  The controller turns that knob from measured tail
latency:

* every :data:`ADJUST_EVERY` completions, compute p99 over the last
  :data:`LATENCY_WINDOW` served latencies (nearest-rank, via
  :func:`repro.core.metrics.percentile` — deterministic);
* **p99 above target** -> shrink the budget multiplicatively
  (``budget * SHRINK_FACTOR``, never below ``min_budget``) — overload
  needs a fast retreat;
* **p99 below ``HEADROOM * target``** -> grow additively by
  :data:`GROW_STEP` — recovery should be cautious, or the loop oscillates;
* otherwise hold.

Multiplicative decrease / additive increase is the classic stable choice
for a control loop facing open-loop load (cf. congestion control).  The
budget history is recorded so experiments can plot the quality cost of
holding the latency target.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Tuple

from ..core.metrics import percentile

__all__ = [
    "ADJUST_EVERY",
    "AdaptiveBudgetController",
    "GROW_STEP",
    "HEADROOM",
    "INITIAL_CHUNK_BUDGET",
    "LATENCY_WINDOW",
    "MIN_CHUNK_BUDGET",
    "SHRINK_FACTOR",
]

#: The query service's starting budget: 0, the whole index — it starts
#: from exact search and only degrades under pressure.
INITIAL_CHUNK_BUDGET = 0
#: The query service's floor: a chunk is the granule of the search, so
#: one chunk is the worst legal answer.
MIN_CHUNK_BUDGET = 1
#: Completions between control decisions.
ADJUST_EVERY = 8
#: Served latencies the p99 is computed over.
LATENCY_WINDOW = 64
#: Multiplicative decrease.  ``int(b * 0.7) <= b - 1`` for every budget
#: ``b >= 1``, so a shrink always drops at least one chunk.
SHRINK_FACTOR = 0.7
#: Additive increase (chunks) per grow decision.
GROW_STEP = 1
#: Grow only while ``p99 <= HEADROOM * target`` — the dead band between
#: ``HEADROOM * target`` and ``target`` prevents hunting.
HEADROOM = 0.6


class AdaptiveBudgetController:
    """Windowed-p99 feedback controller over the default chunk budget.

    Parameters
    ----------
    initial_budget:
        Starting chunk budget (0 = unbounded / whole index; the first
        shrink converts it to a bounded budget of ``n_chunks``).
    n_chunks:
        Chunks in the index — the ceiling the budget can grow back to
        (at which point it is reported as 0 = unbounded again).
    min_budget:
        Floor; one chunk is the smallest legal search.
    target_p99_s:
        The latency the loop steers p99 toward.

    Cadence and gains are the module constants above.
    """

    def __init__(
        self,
        initial_budget: int,
        n_chunks: int,
        min_budget: int,
        target_p99_s: float,
    ):
        if n_chunks < 1:
            raise ValueError("index must hold at least one chunk")
        if initial_budget < 0 or initial_budget > n_chunks:
            raise ValueError(
                f"initial budget must lie in [0, {n_chunks}], got {initial_budget}"
            )
        if not 1 <= min_budget <= n_chunks:
            raise ValueError("minimum budget must lie in [1, n_chunks]")
        if target_p99_s <= 0.0:
            raise ValueError("target p99 must be positive")
        self.n_chunks = int(n_chunks)
        self.min_budget = int(min_budget)
        self.target_p99_s = float(target_p99_s)
        # 0 means "whole index"; internally track the effective budget.
        self._budget = self.n_chunks if initial_budget == 0 else int(initial_budget)
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._since_adjust = 0
        self.n_completed = 0
        self.n_shrinks = 0
        self.n_grows = 0
        #: ``(completion_count, budget_after)`` at every control decision,
        #: starting with the initial setting — the degradation timeline.
        self.history: List[Tuple[int, int]] = [(0, self.budget)]

    @property
    def budget(self) -> int:
        """Current chunk budget (0 = unbounded: the whole index)."""
        return 0 if self._budget >= self.n_chunks else self._budget

    def observe(self, latency_s: float) -> None:
        """Fold one served request's latency in; maybe adjust the budget."""
        if latency_s < 0.0:
            raise ValueError("latency cannot be negative")
        self._latencies.append(float(latency_s))
        self.n_completed += 1
        self._since_adjust += 1
        if self._since_adjust >= ADJUST_EVERY:
            self._since_adjust = 0
            self._adjust()

    def window_p99_s(self) -> float:
        """p99 over the current latency window (NaN when empty)."""
        if not self._latencies:
            return math.nan
        return percentile(list(self._latencies), 0.99)

    def _adjust(self) -> None:
        p99 = self.window_p99_s()
        if p99 != p99:  # NaN: nothing served yet
            return
        before = self._budget
        if p99 > self.target_p99_s:
            self._budget = max(self.min_budget, int(self._budget * SHRINK_FACTOR))
            if self._budget != before:
                self.n_shrinks += 1
        elif p99 <= HEADROOM * self.target_p99_s:
            self._budget = min(self.n_chunks, self._budget + GROW_STEP)
            if self._budget != before:
                self.n_grows += 1
        if self._budget != before:
            self.history.append((self.n_completed, self.budget))
