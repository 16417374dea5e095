"""I/O-CPU pipeline simulation.

The paper's central systems argument (section 1.1): the response time of an
approximate search "is primarily determined by the CPU cost of processing
the descriptors of the chunks ... it can potentially be overlapped with I/O
cost.  As a result, the way to guarantee minimal query processing cost is
to produce uniformly sized chunks, to balance the I/O and CPU cost of the
search."

:class:`PipelineSimulator` models the per-query timeline:

1. the chunk index is read sequentially and the chunks are ranked
   (:meth:`start_query`), then
2. chunks are fetched and processed in rank order.  With double buffering
   the disk prefetches chunk ``i+1`` while the CPU processes chunk ``i``;
   the read of chunk ``i+1`` may start once the read of ``i`` finished and
   the buffer that held chunk ``i-1`` has been drained.

Recurrences (``R`` = read completion, ``C`` = processing completion)::

    R[i] = max(R[i-1], C[i-2]) + io[i]      (double buffering)
    C[i] = max(R[i], C[i-1]) + cpu[i]

With overlap disabled the timeline is strictly serial::

    C[i] = C[i-1] + io[i] + cpu[i]

A chunk abandoned after failed reads runs the same recurrence with
``cpu[i] = 0`` and ``io[i]`` its failed attempts plus backoff.  The search
engine carries the recurrence inline; this class replays it over a
finished trace.

A single chunk's results become visible only at ``C[i]`` — "a single chunk
is the natural granule of the search algorithm" — which is exactly why one
huge BAG chunk stalls quality delivery in Figure 4.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from .chunk_cache import LruChunkCache, chunk_read_time_s
from .cpu_model import CpuModel
from .disk_model import DiskModel

__all__ = ["CostModel", "PipelineSimulator"]


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Bundle of the disk and CPU models plus the overlap policy.

    ``overlap_io_cpu=True`` is the paper's assumed execution model;
    switching it off is the ablation `bench_ablation_overlap`.

    ``chunk_cache``, when set, is a shared
    :class:`~repro.simio.chunk_cache.LruChunkCache` charging whole-chunk
    reads: cold reads at the full random-read price, warm hits at a
    memory-copy rate.  Cache state persists across queries — the buffering
    effect the paper's round-robin protocol eliminates.  The model stays
    frozen; only the cache object carries state.
    """

    disk: DiskModel = dataclasses.field(default_factory=DiskModel)
    cpu: CpuModel = dataclasses.field(default_factory=CpuModel)
    overlap_io_cpu: bool = True
    chunk_cache: Optional[LruChunkCache] = None

    def simulator(self) -> "PipelineSimulator":
        """A fresh per-query timeline simulator."""
        return PipelineSimulator(self)


class PipelineSimulator:
    """Per-query timeline: schedules chunk reads/processing, yields
    absolute completion timestamps."""

    def __init__(self, model: CostModel):
        self._model = model
        self._started = False
        # Absolute completion times of past reads / processing steps.
        self._read_done: List[float] = []
        self._proc_done: List[float] = []
        self._start_time = 0.0

    def start_query(self, n_chunks: int, index_bytes: int) -> float:
        """Account for the index read + global ranking; returns the
        timestamp at which the first chunk read may begin.

        The paper measures this prefix at roughly 50 ms for its index files
        (section 5.5, footnote 3).
        """
        if self._started:
            raise RuntimeError("start_query may only be called once per simulator")
        self._started = True
        t = self._model.disk.sequential_read_time_s(index_bytes)
        t += self._model.cpu.ranking_time_s(n_chunks)
        self._start_time = t
        return t

    def process_chunk(
        self,
        page_count: int,
        n_descriptors: int,
        page_offset: Optional[int] = None,
    ) -> float:
        """Schedule the next ranked chunk; returns its processing-completion
        timestamp (when its neighbors become visible).

        ``page_offset`` only matters when the cost model carries a chunk
        cache: it is the key the read is charged through.
        """
        if not self._started:
            raise RuntimeError("start_query must run before chunks are processed")
        if self._model.chunk_cache is not None and page_offset is not None:
            io, _ = chunk_read_time_s(
                self._model.disk, self._model.chunk_cache, page_offset, page_count
            )
        else:
            io = self._model.disk.random_read_time_s(page_count)
        cpu = self._model.cpu.chunk_processing_time_s(n_descriptors)
        i = len(self._proc_done)
        if self._model.overlap_io_cpu:
            prev_read = self._read_done[i - 1] if i >= 1 else self._start_time
            drained = self._proc_done[i - 2] if i >= 2 else self._start_time
            read_done = max(prev_read, drained) + io
            prev_proc = self._proc_done[i - 1] if i >= 1 else self._start_time
            proc_done = max(read_done, prev_proc) + cpu
        else:
            prev_proc = self._proc_done[i - 1] if i >= 1 else self._start_time
            read_done = prev_proc + io
            proc_done = read_done + cpu
        self._read_done.append(read_done)
        self._proc_done.append(proc_done)
        return proc_done

    @property
    def elapsed(self) -> float:
        """Timestamp of the latest completed event."""
        if self._proc_done:
            return self._proc_done[-1]
        return self._start_time if self._started else 0.0
