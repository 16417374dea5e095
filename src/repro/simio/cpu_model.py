"""Simulated CPU cost of distance processing.

The paper's CPU observations on a 2.8 GHz Pentium 4:

* reading **and** processing a typical SR-tree chunk of ~1,700 descriptors
  takes about 10 ms (section 5.5), and
* processing the largest BAG chunk (~1 million descriptors) takes about
  1.8 s,

which pins the marginal CPU cost near 1.8 microseconds per 24-d Euclidean
distance evaluation plus neighbor-set maintenance.  The model charges a
linear cost per descriptor scanned and a small fixed overhead per chunk
(dispatch, buffer management).
"""

from __future__ import annotations

import dataclasses

__all__ = ["CpuModel"]


@dataclasses.dataclass(frozen=True)
class CpuModel:
    """Linear CPU cost model for chunk processing.

    Parameters
    ----------
    distance_time_s:
        Cost of computing one query-descriptor distance and offering the
        result to the neighbor set.
    chunk_overhead_s:
        Fixed per-chunk cost (loop setup, result bookkeeping).
    ranking_time_per_chunk_s:
        Cost per chunk of the global centroid ranking performed once at
        query start (distance to every centroid plus the sort share).
    """

    distance_time_s: float = 1.8e-6
    chunk_overhead_s: float = 0.1e-3
    ranking_time_per_chunk_s: float = 2.5e-6

    def __post_init__(self) -> None:
        costs = (self.distance_time_s, self.chunk_overhead_s, self.ranking_time_per_chunk_s)
        # ``not x >= 0``, not ``x < 0``: a NaN fails the test too.
        if not all(cost >= 0 for cost in costs):
            raise ValueError("CPU costs cannot be negative or NaN")

    def chunk_processing_time_s(self, n_descriptors: int) -> float:
        """CPU time to scan one chunk of ``n_descriptors``."""
        if n_descriptors < 0:
            raise ValueError("descriptor count cannot be negative")
        return self.chunk_overhead_s + n_descriptors * self.distance_time_s

    def ranking_time_s(self, n_chunks: int) -> float:
        """CPU time of the global chunk ranking at query start."""
        if n_chunks < 0:
            raise ValueError("chunk count cannot be negative")
        return n_chunks * self.ranking_time_per_chunk_s
