"""Reference timeline of the I/O-CPU pipeline, degraded reads included.

The search engine carries the pipeline recurrence inline
(``ChunkSearcher._run``), and the package's
:class:`~repro.simio.pipeline.PipelineSimulator` replays only clean chunk
reads.  The step for a chunk abandoned after failed reads, and the extra
I/O charge of a chunk read after failed attempts, are needed by the tests
alone — the replay oracle (``core/replay_oracle.py``) and
``simio/test_pipeline.py`` — so they live here, verbatim.

Importable from any test module (pytest puts ``tests/`` on the path when it
loads ``tests/conftest.py``): ``from reference_pipeline import
PipelineSimulator``.
"""

from typing import Optional

from repro.simio import pipeline


class PipelineSimulator(pipeline.PipelineSimulator):
    """The shipped timeline plus :meth:`skip_chunk` and
    :meth:`process_chunk`'s ``extra_io_s``."""

    def process_chunk(
        self,
        page_count: int,
        n_descriptors: int,
        page_offset: Optional[int] = None,
        extra_io_s: float = 0.0,
    ) -> float:
        """Schedule the next ranked chunk; returns its processing-completion
        timestamp (when its neighbors become visible).

        ``page_offset`` only matters when the cost model carries a chunk
        cache: it is the key the read is charged through.

        ``extra_io_s`` is added to the chunk's I/O charge — degraded
        execution uses it for failed read attempts, backoff delays and
        latency spikes that preceded the successful read.
        """
        if not self._started:
            raise RuntimeError("start_query must run before chunks are processed")
        if extra_io_s < 0.0:
            raise ValueError("extra I/O charge cannot be negative")
        if self._model.chunk_cache is not None and page_offset is not None:
            io, _ = pipeline.chunk_read_time_s(
                self._model.disk, self._model.chunk_cache, page_offset, page_count
            )
        else:
            io = self._model.disk.random_read_time_s(page_count)
        if extra_io_s:
            io += extra_io_s
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

    def skip_chunk(self, io_s: float) -> float:
        """Schedule a chunk that was *abandoned* after failed read attempts.

        The chunk occupies the disk for ``io_s`` simulated seconds (every
        failed attempt plus backoff — the full price computed by the
        fault plan) but contributes no CPU work: nothing was decoded, so
        there is nothing to scan.  Returns the timestamp at which the
        search moves on.
        """
        if not self._started:
            raise RuntimeError("start_query must run before chunks are processed")
        if io_s < 0.0:
            raise ValueError("skip I/O charge cannot be negative")
        i = len(self._proc_done)
        if self._model.overlap_io_cpu:
            prev_read = self._read_done[i - 1] if i >= 1 else self._start_time
            drained = self._proc_done[i - 2] if i >= 2 else self._start_time
            read_done = max(prev_read, drained) + io_s
            prev_proc = self._proc_done[i - 1] if i >= 1 else self._start_time
            proc_done = max(read_done, prev_proc)
        else:
            prev_proc = self._proc_done[i - 1] if i >= 1 else self._start_time
            read_done = prev_proc + io_s
            proc_done = read_done
        self._read_done.append(read_done)
        self._proc_done.append(proc_done)
        return proc_done
