"""Per-chunk search traces.

The paper logs its quality and time metrics "after the processing of every
chunk" (section 5.4), always running queries to conclusion so that the
quality of intermediate results can be measured afterwards.  A
:class:`SearchTrace` is that log for one query: one :class:`TraceEvent` per
processed chunk, plus the fixed query-start cost (index read + ranking).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, NamedTuple

__all__ = ["TraceEvent", "SearchTrace"]


class TraceEvent(NamedTuple):
    """State right after one chunk finished processing.

    A ``NamedTuple`` rather than a frozen dataclass on purpose: a trace
    event is recorded for *every* visited chunk of every query, so its
    construction sits on the hottest per-event path of the engine, and
    the C-level tuple constructor is several times cheaper than the
    guarded field-by-field ``__init__`` a frozen dataclass generates.
    The consuming API is unchanged: immutable, field access by name,
    value equality, and keyword construction all behave identically.

    Attributes
    ----------
    chunk_id:
        Which chunk (index-file position) was processed.
    rank:
        Its position in the query's chunk ranking (1-based).
    elapsed_s:
        Clock reading when the chunk's results became visible.
    n_descriptors:
        Descriptors scanned in this chunk.
    neighbors_found:
        Size of the neighbor set after the update.
    kth_distance:
        Current distance to the k-th neighbor (inf while warming up).
    true_matches:
        How many of the query's *true* k nearest neighbors are present in
        the current neighbor set — the paper's intermediate-quality
        measure.  ``-1`` when no ground truth was supplied.
    skipped:
        True when the chunk was *abandoned* under degraded execution:
        its read attempts all failed, time was charged, but none of its
        ``n_descriptors`` descriptors were scanned.
    fault:
        Fault kind that touched this chunk access (``"none"`` for clean
        reads; see :mod:`repro.faults.plan` for the taxonomy).
    retries:
        Read attempts beyond the first (0 for clean reads).
    """

    chunk_id: int
    rank: int
    elapsed_s: float
    n_descriptors: int
    neighbors_found: int
    kth_distance: float
    true_matches: int = -1
    skipped: bool = False
    fault: str = "none"
    retries: int = 0


@dataclasses.dataclass
class SearchTrace:
    """Complete per-chunk log of one query's execution."""

    start_elapsed_s: float
    events: List[TraceEvent] = dataclasses.field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        if self.events and event.rank != self.events[-1].rank + 1:
            raise ValueError("trace events must arrive in rank order")
        if not self.events and event.rank != 1:
            raise ValueError("first trace event must have rank 1")
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    # -- quality-over-cost curves (feed figures 2-5) -----------------------

    def chunks_to_find(self, n_neighbors: int) -> float:
        """Chunks read until ``n_neighbors`` true neighbors were present.

        Returns 0 for ``n_neighbors == 0`` and ``inf`` if the trace never
        reached that many matches (cannot happen on completion runs).
        Requires ground truth to have been supplied to the search.
        """
        if n_neighbors <= 0:
            return 0.0
        for event in self.events:
            if event.true_matches < 0:
                raise ValueError("trace has no ground-truth match counts")
            if event.true_matches >= n_neighbors:
                return float(event.rank)
        return math.inf

    def time_to_find(self, n_neighbors: int) -> float:
        """Elapsed seconds until ``n_neighbors`` true neighbors were present.

        For ``n_neighbors == 0`` this is the query-start cost (the index
        read), which is why figures 4-5 do not start at the origin.
        """
        if n_neighbors <= 0:
            return self.start_elapsed_s
        for event in self.events:
            if event.true_matches < 0:
                raise ValueError("trace has no ground-truth match counts")
            if event.true_matches >= n_neighbors:
                return event.elapsed_s
        return math.inf

    @property
    def final_elapsed_s(self) -> float:
        """Clock reading when the query finished."""
        return self.events[-1].elapsed_s if self.events else self.start_elapsed_s

    @property
    def chunks_read(self) -> int:
        """Chunks whose descriptors were actually scanned (skips excluded)."""
        return sum(1 for e in self.events if not e.skipped)

    @property
    def chunks_skipped(self) -> int:
        """Chunks abandoned after exhausting read retries."""
        return sum(1 for e in self.events if e.skipped)

    @property
    def descriptors_scanned(self) -> int:
        return int(sum(e.n_descriptors for e in self.events if not e.skipped))

    @property
    def descriptors_skipped(self) -> int:
        """Descriptors lost to skipped chunks (never scanned)."""
        return int(sum(e.n_descriptors for e in self.events if e.skipped))

    @property
    def coverage_fraction(self) -> float:
        """Fraction of *visited* descriptors actually scanned.

        1.0 for a clean run; below 1.0 the search result can silently
        miss true neighbors that lived in the skipped chunks, which is
        why a degraded search never claims exact completion.
        """
        scanned = self.descriptors_scanned
        total = scanned + self.descriptors_skipped
        return scanned / total if total else 1.0

    @property
    def total_retries(self) -> int:
        """Read attempts beyond the first, summed over all chunk accesses."""
        return int(sum(e.retries for e in self.events))
