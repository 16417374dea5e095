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
and each access classifies its row.  The searchers run a cohort one
query after another, so a query's table is drawn once.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..simio.disk_model import DiskModel
from ..simio.pipeline import CostModel
from .plan import ChunkFaultOutcome, FaultPlan

__all__ = ["FaultInjector"]


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
        # The current query's draws, one row per chunk id, and the number
        # of rows a new query's table starts with (the largest chunk id
        # seen so far, plus one).
        self._query: Optional[int] = None
        self._draws = np.empty((0, 0), dtype=np.float64)
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
        return self.plan.classify(self._row(query_id, chunk_id), attempt_io_s)

    def _row(self, query_id: int, chunk_id: int) -> np.ndarray:
        """The draws of one access, from the current query's table (drawn
        anew for another query, grown for a larger chunk id)."""
        if chunk_id < 0:
            raise ValueError("expected non-negative integer")
        self._span = max(self._span, chunk_id + 1)
        draws = self._draws
        if query_id != self._query:
            draws = self.plan.chunk_draws(query_id, 0, self._span)
            self._query = query_id
        elif chunk_id >= len(draws):
            grown = self.plan.chunk_draws(
                query_id, len(draws), max(self._span, 2 * len(draws))
            )
            draws = np.concatenate([draws, grown])
        self._draws = draws
        return draws[chunk_id]
