"""Fault injection bound to the disk model.

:class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan` to a
:class:`~repro.simio.disk_model.DiskModel` so that each decision also
carries its simulated time charge (failed attempts pay the chunk's
uncached random-read cost; spikes pay ``SPIKE_S``; backoff delays come
from the plan).  The searchers consult it per ``(query, chunk)`` and the
injected latency flows through the per-query pipeline recurrence
(:mod:`~repro.simio.pipeline`).  Real on-disk damage is not injected here:
the chunk readers' checksums turn it into
:class:`~repro.storage.errors.CorruptFileError`, which the searchers report
through :meth:`FaultInjector.outcome` as ``readable=False``.

Draws are the plan's, made one query at a time: the injector holds the
current query's ``(n_chunks, MAX_RETRIES + 1)`` table of
:meth:`~repro.faults.plan.FaultPlan.chunk_draws` (one vectorised call),
and marks, once per table, the rows whose first draw is clean (at or
above :attr:`~repro.faults.plan.FaultPlan.clean_edge`).  A clean row's
access is a list lookup that returns one shared outcome, equal to the one
:meth:`~repro.faults.plan.FaultPlan.classify` builds for it; any other row
is classified.  The searchers run a cohort one query after another, so a
query's table is drawn once.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..simio.disk_model import DiskModel
from ..simio.pipeline import CostModel
from .plan import FAULT_NONE, ChunkFaultOutcome, FaultPlan

__all__ = ["FaultInjector"]

#: What :meth:`~repro.faults.plan.FaultPlan.classify` returns for a clean
#: first draw, built once.  Like every classified outcome it is not
#: :data:`~repro.faults.plan.OK_OUTCOME`, so the searcher logs it in
#: ``trace.faults`` exactly as a fresh one.
_CLEAN_OUTCOME = ChunkFaultOutcome(
    ok=True, kind=FAULT_NONE, attempts=1, extra_io_s=0.0, spiked=False
)


class FaultInjector:
    """Per-(query, chunk) fault decisions with simulated time charges.

    Parameters
    ----------
    plan:
        The seeded fault plan.
    disk:
        Disk model used to price failed read attempts (one uncached
        random read of the chunk's pages per attempt).
    """

    def __init__(self, plan: FaultPlan, disk: DiskModel):
        self.plan = plan
        self.disk = disk
        self._attempt_io_memo: Dict[int, float] = {}
        # The current query's draws, one row per chunk id, whether each
        # row's first draw is clean, and the number of rows a new query's
        # table starts with (the largest chunk id seen so far, plus one).
        self._query: Optional[int] = None
        self._draws = np.empty((0, 0), dtype=np.float64)
        self._clean: List[bool] = []
        self._span = 0

    @classmethod
    def from_cost_model(cls, plan: FaultPlan, cost_model: CostModel) -> "FaultInjector":
        """Bind a plan to the disk of an existing cost model, so attempt
        charges use exactly the searcher's price per chunk read."""
        return cls(plan, cost_model.disk)

    @property
    def is_null(self) -> bool:
        """True when the plan can never inject anything."""
        return self.plan.is_null

    def attempt_io_s(self, page_count: int) -> float:
        """Simulated cost of one failed read attempt of ``page_count``
        pages (memoised; always the uncached random-read price)."""
        cached = self._attempt_io_memo.get(page_count)
        if cached is None:
            cached = self.disk.random_read_time_s(page_count)
            self._attempt_io_memo[page_count] = cached
        return cached

    def outcome(
        self,
        query_id: int,
        chunk_id: int,
        page_count: int,
        readable: bool = True,
    ) -> ChunkFaultOutcome:
        """Resolve one ``(query, chunk)`` access: equal to
        :meth:`~repro.faults.plan.FaultPlan.chunk_outcome`."""
        attempt_io_s = self.attempt_io_s(page_count)
        if not readable or self.plan.is_null:
            return self.plan.chunk_outcome(
                query_id, chunk_id, attempt_io_s, readable=readable
            )
        if self._first_draw_clean(query_id, chunk_id):
            return _CLEAN_OUTCOME
        return self.plan.classify(self._draws[chunk_id], attempt_io_s)

    def _first_draw_clean(self, query_id: int, chunk_id: int) -> bool:
        """Whether the access's first draw is clean, from the current
        query's table (drawn anew for another query, grown for a larger
        chunk id); ``self._draws[chunk_id]`` is then the access's row."""
        if chunk_id < 0:
            raise ValueError("expected non-negative integer")
        self._span = max(self._span, chunk_id + 1)
        if query_id != self._query:
            draws = self.plan.chunk_draws(query_id, 0, self._span)
            self._query, self._draws = query_id, draws
            self._clean = (draws[:, 0] >= self.plan.clean_edge).tolist()
        elif chunk_id >= len(self._clean):
            grown = self.plan.chunk_draws(
                query_id, len(self._clean), max(self._span, 2 * len(self._clean))
            )
            self._draws = np.concatenate([self._draws, grown])
            self._clean += (grown[:, 0] >= self.plan.clean_edge).tolist()
        return self._clean[chunk_id]
