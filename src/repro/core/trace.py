"""Per-chunk search traces.

The paper logs its quality and time metrics "after the processing of every
chunk" (section 5.4), always running queries to conclusion so that the
quality of intermediate results can be measured afterwards.  A
:class:`SearchTrace` is that log for one query: one entry per visited
chunk, plus the fixed query-start cost (index read + ranking).

An exact query visits almost every chunk and scans few of them, so the log
is kept in columns — one plain list per quantity, appended to by the
engine's chunk loop — and the rarely-set fault fields only for the visits
that have them.  The summaries read the columns directly;
:attr:`SearchTrace.events` builds the row view, a list of
:class:`TraceEvent`, the first time it is read.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = ["TraceEvent", "SearchTrace"]


class TraceEvent(NamedTuple):
    """State right after one chunk finished processing: one row of a
    :class:`SearchTrace`.

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


#: ``(skipped, fault, retries)`` of a clean visit: never stored.
_CLEAN = (False, "none", 0)


class SearchTrace:
    """Complete per-chunk log of one query's execution.

    Visit ``i`` (rank ``i + 1``) is entry ``i`` of every column;
    ``faults[i]`` holds its ``(skipped, fault, retries)`` when they are not
    those of a clean read; the engine, which marks no ``OK_OUTCOME``
    visit, stores no clean one.  Two traces are equal when their start
    costs and their :attr:`events` are.
    """

    __slots__ = (
        "start_elapsed_s",
        "chunk_ids",
        "elapsed",
        "n_descriptors",
        "neighbors_found",
        "kth_distance",
        "true_matches",
        "faults",
        "_events",
    )

    def __init__(self, start_elapsed_s: float):
        self.start_elapsed_s = start_elapsed_s
        self.chunk_ids: List[int] = []
        self.elapsed: List[float] = []
        self.n_descriptors: List[int] = []
        self.neighbors_found: List[int] = []
        self.kth_distance: List[float] = []
        self.true_matches: List[int] = []
        self.faults: Dict[int, Tuple[bool, str, int]] = {}
        self._events: Optional[List[TraceEvent]] = None

    @property
    def events(self) -> List[TraceEvent]:
        """One :class:`TraceEvent` per visit, in rank order (built once)."""
        if self._events is None:
            faults = self.faults
            self._events = [
                TraceEvent(*row, *faults.get(position, _CLEAN))
                for position, row in enumerate(
                    zip(
                        self.chunk_ids,
                        range(1, len(self.chunk_ids) + 1),
                        self.elapsed,
                        self.n_descriptors,
                        self.neighbors_found,
                        self.kth_distance,
                        self.true_matches,
                    )
                )
            ]
        return self._events

    def __len__(self) -> int:
        return len(self.chunk_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchTrace):
            return NotImplemented
        return (
            self.start_elapsed_s == other.start_elapsed_s
            and self.events == other.events
        )

    __hash__ = None  # type: ignore[assignment]

    # -- quality-over-cost curves (feed figures 2-5) -----------------------

    def _first_with(self, n_neighbors: int) -> Optional[int]:
        """Position of the first visit holding ``n_neighbors`` true
        neighbors, or ``None``; raises without ground truth."""
        for position, matches in enumerate(self.true_matches):
            if matches < 0:
                raise ValueError("trace has no ground-truth match counts")
            if matches >= n_neighbors:
                return position
        return None

    def chunks_to_find(self, n_neighbors: int) -> float:
        """Chunks read until ``n_neighbors`` true neighbors were present.

        Returns 0 for ``n_neighbors == 0`` and ``inf`` if the trace never
        reached that many matches (cannot happen on completion runs).
        Requires ground truth to have been supplied to the search.
        """
        if n_neighbors <= 0:
            return 0.0
        position = self._first_with(n_neighbors)
        return math.inf if position is None else float(position + 1)

    def time_to_find(self, n_neighbors: int) -> float:
        """Elapsed seconds until ``n_neighbors`` true neighbors were present.

        For ``n_neighbors == 0`` this is the query-start cost (the index
        read), which is why figures 4-5 do not start at the origin.
        """
        if n_neighbors <= 0:
            return self.start_elapsed_s
        position = self._first_with(n_neighbors)
        return math.inf if position is None else self.elapsed[position]

    @property
    def final_elapsed_s(self) -> float:
        """Clock reading when the query finished."""
        return self.elapsed[-1] if self.elapsed else self.start_elapsed_s

    def _skipped_positions(self) -> List[int]:
        return [p for p, (skipped, _, _) in self.faults.items() if skipped]

    @property
    def chunks_read(self) -> int:
        """Chunks whose descriptors were actually scanned (skips excluded)."""
        return len(self.chunk_ids) - self.chunks_skipped

    @property
    def chunks_skipped(self) -> int:
        """Chunks abandoned after exhausting read retries."""
        return len(self._skipped_positions())

    @property
    def descriptors_scanned(self) -> int:
        return sum(self.n_descriptors) - self.descriptors_skipped

    @property
    def descriptors_skipped(self) -> int:
        """Descriptors lost to skipped chunks (never scanned)."""
        counts = self.n_descriptors
        return sum(counts[p] for p in self._skipped_positions())

    @property
    def coverage_fraction(self) -> float:
        """Fraction of *visited* descriptors actually scanned.

        1.0 for a clean run; below 1.0 the search result can silently
        miss true neighbors that lived in the skipped chunks, which is
        why a degraded search never claims exact completion.
        """
        total = sum(self.n_descriptors)
        return (total - self.descriptors_skipped) / total if total else 1.0

    @property
    def total_retries(self) -> int:
        """Read attempts beyond the first, summed over all chunk accesses."""
        return sum(retries for _, _, retries in self.faults.values())
