"""Reference timeline of the I/O-CPU pipeline, skipped chunks included.

The search engine carries the pipeline recurrence inline
(``ChunkSearcher._run``), and the package's
:class:`~repro.simio.pipeline.PipelineSimulator` replays only chunks that
were read.  The step for a chunk abandoned after failed reads is needed by
the tests alone — the replay oracle (``core/replay_oracle.py``) and
``simio/test_pipeline.py`` — so it lives here, verbatim.

Importable from any test module (pytest puts ``tests/`` on the path when it
loads ``tests/conftest.py``): ``from reference_pipeline import
PipelineSimulator``.
"""

from repro.simio import pipeline


class PipelineSimulator(pipeline.PipelineSimulator):
    """The shipped timeline plus :meth:`skip_chunk`."""

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
