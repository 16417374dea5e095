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
:meth:`~repro.faults.plan.FaultPlan.chunk_draws` (one vectorised call) and
its outcome table (:meth:`FaultInjector.outcome_table`): ``OK_OUTCOME``
where the row's first draw is clean (at or above
:attr:`~repro.faults.plan.FaultPlan.clean_edge`), ``None`` where
:meth:`FaultInjector.outcome` classifies it.  The searchers fetch the
table once per query, run a cohort one query after another and log no
fault mark for an ``OK_OUTCOME`` visit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..simio.disk_model import DiskModel
from ..simio.pipeline import CostModel
from .plan import OK_OUTCOME, ChunkFaultOutcome, FaultPlan

__all__ = ["FaultInjector"]

#: Per chunk id, a decided outcome or ``None`` (:meth:`FaultInjector.outcome`).
OutcomeTable = List[Optional[ChunkFaultOutcome]]


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
        # The current query's draws, one row per chunk id, and its outcome
        # table (OK_OUTCOME where the row's first draw is clean, else None).
        self._query: Optional[int] = None
        self._draws = np.empty((0, 0), dtype=np.float64)
        self._table: OutcomeTable = []

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

    def outcome_table(self, query_id: int, n_chunks: int) -> OutcomeTable:
        """A new list over chunks ``[0, n_chunks)``: ``OK_OUTCOME`` where a
        readable access is clean (every one under a null plan), ``None``
        where :meth:`outcome` has to classify it."""
        if self.plan.is_null:
            return [OK_OUTCOME] * n_chunks
        self._cover(query_id, n_chunks)
        return self._table[:n_chunks]

    def outcome(
        self,
        query_id: int,
        chunk_id: int,
        page_count: int,
        readable: bool = True,
    ) -> ChunkFaultOutcome:
        """Resolve one ``(query, chunk)`` access: equal to
        :meth:`~repro.faults.plan.FaultPlan.chunk_outcome`, and
        :data:`~repro.faults.plan.OK_OUTCOME` itself for a clean one."""
        attempt_io_s = self.attempt_io_s(page_count)
        if not readable or self.plan.is_null:
            return self.plan.chunk_outcome(
                query_id, chunk_id, attempt_io_s, readable=readable
            )
        if chunk_id < 0:
            raise ValueError("expected non-negative integer")
        self._cover(query_id, chunk_id + 1)
        decided = self._table[chunk_id]
        return decided or self.plan.classify(self._draws[chunk_id], attempt_io_s)

    def _cover(self, query_id: int, n_rows: int) -> None:
        """Make the held draws and table the query's and ``n_rows`` long at
        least (doubled for a larger chunk id; draws are keyed per row)."""
        if query_id != self._query:
            self._query, self._table = query_id, []
        have = len(self._table)
        if n_rows > have:
            draws = self.plan.chunk_draws(query_id, have, max(n_rows, 2 * have))
            self._draws = np.concatenate([self._draws, draws]) if have else draws
            edge = self.plan.clean_edge
            self._table += [
                OK_OUTCOME if u >= edge else None for u in draws[:, 0].tolist()
            ]
