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

Draws are the plan's, a *window* of query keys at a time: a key outside
the held window draws the aligned window that holds it over chunks
``[0, n_chunks)`` in one ``FaultPlan.chunk_draws`` call, then every
attempt's kind code (``FaultPlan.kind_codes``) and every key's code
sequence as one integer.  The window holds those integers and the
outcome tables (:meth:`FaultInjector.outcome_table`): ``OK_OUTCOME``
where the first code is "none", else ``None``.
:meth:`FaultInjector.outcome` answers a ``None`` entry from a memo keyed
by (code sequence, attempt cost), classifying once per pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..simio.disk_model import DiskModel
from ..simio.pipeline import CostModel
from .plan import ATTEMPT_KINDS, FAULT_NONE, OK_OUTCOME, ChunkFaultOutcome, FaultPlan

__all__ = ["FaultInjector"]

#: Per chunk id, a decided outcome or ``None`` (:meth:`FaultInjector.outcome`).
OutcomeTable = List[Optional[ChunkFaultOutcome]]

#: Keys (queries x chunks) per window, 16 queries over 500 chunks: two
#: list slots a key, 128 KiB held; larger windows drew no faster per key.
_WINDOW_ROWS = 1 << 13
_N_KINDS = len(ATTEMPT_KINDS)  # the base of a code sequence's integer
#: A first attempt whose kind code is at or above this one is clean.
_CLEAN_CODE = ATTEMPT_KINDS.index(FAULT_NONE)


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
        # Queries [_first, _first + len(_tables)) x chunks [0, _width).
        self._first = self._width = self._budget = 0
        self._sequences: List[List[int]] = []
        self._tables: List[OutcomeTable] = []
        # (code sequence integer, attempt cost) -> the classified outcome.
        self._memo: Dict[Tuple[int, float], ChunkFaultOutcome] = {}

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
        if query_id < 0:
            raise ValueError("expected non-negative integer")
        if self.plan.is_null or not n_chunks:
            return [OK_OUTCOME] * n_chunks
        row = self._row(query_id, n_chunks)  # may draw a new window
        return self._tables[row][:n_chunks]

    def outcome(
        self,
        query_id: int,
        chunk_id: int,
        page_count: int,
        readable: bool = True,
    ) -> ChunkFaultOutcome:
        """Resolve one ``(query, chunk)`` access: the plan's
        :meth:`~repro.faults.plan.FaultPlan.classify` of its draws,
        :data:`~repro.faults.plan.OK_OUTCOME` itself for a clean one, and
        :meth:`~repro.faults.plan.FaultPlan.unreadable_outcome` when
        ``readable`` is False."""
        if query_id < 0 or chunk_id < 0:
            raise ValueError("expected non-negative integer")
        attempt_io_s = self.attempt_io_s(page_count)
        if not readable:
            return self.plan.unreadable_outcome(attempt_io_s)
        if self.plan.is_null:
            return OK_OUTCOME
        row = self._row(query_id, chunk_id + 1)
        decided = self._tables[row][chunk_id]
        if decided is not None:
            return decided
        sequence = self._sequences[row][chunk_id]
        decided = self._memo.get((sequence, attempt_io_s))
        if decided is None:
            codes = [sequence // _N_KINDS**a % _N_KINDS for a in range(self._budget)]
            decided = self.plan.classify(codes, attempt_io_s)
            self._memo[sequence, attempt_io_s] = decided
        return decided

    def _row(self, query_id: int, width: int) -> int:
        """``query_id``'s row of the held window, which covers chunks
        ``[0, width)`` at least; draws the window that holds the key when
        the held one does not (never narrower than the held one)."""
        row = query_id - self._first
        if 0 <= row < len(self._tables) and width <= self._width:
            return row
        width = max(width, self._width)
        n_queries = max(1, _WINDOW_ROWS // width)
        first = query_id - query_id % n_queries
        kinds = self.plan.kind_codes(
            self.plan.chunk_draws(range(first, first + n_queries), range(width))
        )
        self._budget = kinds.shape[-1]
        sequences = kinds @ _N_KINDS ** np.arange(self._budget)
        tables = np.full(sequences.shape, None, dtype=object)
        tables[kinds[..., 0] >= _CLEAN_CODE] = OK_OUTCOME
        self._first, self._width = first, width
        self._sequences, self._tables = sequences.tolist(), tables.tolist()
        return query_id - first
