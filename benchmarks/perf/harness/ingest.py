"""``ingest_mixed``: writes beside reads on a live ``StreamingChunkIndex``.

A round is ``ingest_batches`` acknowledged batches of 64 inserts and 16
deletes (real files, real fsync, on the checkout's filesystem), a
``to_index()`` snapshot plus one budgeted query every 8 batches, and a
checkpoint half-way through, so every checkpoint after the first folds
one round of batches and the log ends the run carrying half a round
un-checkpointed.  After the last round the live directory is copied with
the writer still open and recovered five times.  Latencies are the
sandbox's, not a device's.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro import (
    ChunkSearcher,
    DescriptorCollection,
    MaxChunks,
    SRTreeChunker,
    StreamingChunkIndex,
    build_chunk_index,
    delete_op,
    insert_op,
    verify_streaming_index,
)
from repro.storage.wal import WalWriter, scan_wal

from . import stats
from .data import Collection, delete_schedule, generate_collection, query_pool
from .runner import APPROX_CHUNKS, K, ROUNDS, Operation, Run, SetupTimer, Workload
from .search_workloads import chunk_stats

_INSERTS_PER_BATCH = 64
_DELETES_PER_BATCH = 16
_SNAPSHOT_EVERY = 8
_RECOVERIES = 5


def _directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def _wal_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.glob("wal-*.log"))


@dataclasses.dataclass
class _IngestRound:
    apply_ms: List[float] = dataclasses.field(default_factory=list)
    snapshot_ms: List[float] = dataclasses.field(default_factory=list)
    query_ms: List[float] = dataclasses.field(default_factory=list)
    snapshot_query_ms: List[float] = dataclasses.field(default_factory=list)
    checkpoint_ms: List[float] = dataclasses.field(default_factory=list)
    dirty_chunks: List[int] = dataclasses.field(default_factory=list)
    written_bytes: int = 0  # log bytes appended + segments published
    splits: int = 0
    merges: int = 0
    wal_ms: List[float] = dataclasses.field(default_factory=list)  # traced only

    @property
    def busy_s(self) -> float:
        """Host seconds inside the program's calls this round."""
        return 1e-3 * (
            sum(self.apply_ms) + sum(self.snapshot_ms)
            + sum(self.snapshot_query_ms) + sum(self.checkpoint_ms)
        )


class IngestMixed(Workload):
    name = "ingest_mixed"
    op_alias = "apply_p50_ms"
    rate_alias = "ingest_ops_per_s"

    def __init__(self, run: Run):
        super().__init__(run)
        self.n_base = self.scale.ingest_base.n_descriptors
        self.all_rows: Optional[Collection] = None
        self.deletes = np.empty(0, dtype=np.int64)
        self.queries = np.empty((0, 0))
        self.streaming: Optional[StreamingChunkIndex] = None
        self.directory: Optional[Path] = None
        self.scratch_wal: Optional[WalWriter] = None
        self.live: Set[int] = set()
        self.rounds: List[_IngestRound] = []
        self.setup_counts: Dict[str, float] = {}
        self.tail: Dict[str, float] = {}

    @property
    def _ops_per_round(self) -> int:
        return self.scale.ingest_batches * (_INSERTS_PER_BATCH + _DELETES_PER_BATCH)

    def make_inputs(self) -> None:
        batches = ROUNDS * self.scale.ingest_batches
        spec = dataclasses.replace(
            self.scale.ingest_base,
            n_descriptors=self.n_base + batches * _INSERTS_PER_BATCH,
        )
        # One draw for base and inserts: rows past the base arrive later.
        self.all_rows = generate_collection(spec, self.run.seed)
        self.deletes = delete_schedule(
            self.n_base, self.run.seed, batches * _DELETES_PER_BATCH
        )
        self.queries = query_pool(
            self.all_rows, spec, self.run.seed, batches // _SNAPSHOT_EVERY + 1
        ).queries

    def setup(self, workdir: Path, timer: SetupTimer) -> None:
        rows = self.all_rows
        assert rows is not None
        n = self.n_base
        base = DescriptorCollection(rows.vectors[:n], rows.ids[:n], rows.image_ids[:n])
        chunking = timer.time(
            "chunking.form_chunks_s",
            lambda: SRTreeChunker(self.scale.ingest_leaf).form_chunks(base),
        )
        index = timer.time(
            "chunk_index.build_s",
            lambda: build_chunk_index(chunking.retained, chunking.chunk_set, name=self.name),
        )
        self.setup_counts = chunk_stats(index)
        self.streaming = timer.time(
            "ingest.create_s",
            lambda: StreamingChunkIndex.create(str(workdir), index, name=self.name),
        )
        self.directory = workdir
        self.live = set(range(n))
        if self.run.tracer is not None:
            self.scratch_wal = WalWriter.create(
                str(workdir.parent / "scratch-wal.log"), rows.vectors.shape[1]
            )

    def teardown(self) -> None:
        if self.streaming is not None:
            self.streaming.close()
            self.streaming = None
        if self.scratch_wal is not None:
            self.scratch_wal.close()
            self.scratch_wal = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    # -- measured rounds ------------------------------------------------------

    def round(self, index: int) -> None:
        streaming, rows, run = self.streaming, self.all_rows, self.run
        assert streaming is not None and rows is not None and self.directory is not None
        record = _IngestRound()
        log_bytes = _wal_bytes(self.directory)
        n_batches = self.scale.ingest_batches

        for batch in range(n_batches):
            number = index * n_batches + batch
            if batch == n_batches // 2:
                # The log shrinks when the checkpoint rotates it.
                record.written_bytes += _wal_bytes(self.directory) - log_bytes
                self._checkpoint(record)
                log_bytes = _wal_bytes(self.directory)
            first = self.n_base + number * _INSERTS_PER_BATCH
            inserted = range(first, first + _INSERTS_PER_BATCH)
            deleted = self.deletes[
                number * _DELETES_PER_BATCH : (number + 1) * _DELETES_PER_BATCH
            ].tolist()
            ops = [insert_op(i, rows.vectors[i]) for i in inserted]
            ops += [delete_op(i) for i in deleted]
            with run.operation(f"ingest_mixed: batch {number}"):
                start = time.perf_counter()
                streaming.apply(ops)
                record.apply_ms.append(1e3 * (time.perf_counter() - start))
                # Acknowledged: from here on recovery must show it.
                self.live.update(inserted)
                self.live.difference_update(deleted)
            if self.scratch_wal is not None:
                start = time.perf_counter()
                self.scratch_wal.append_batch(ops)
                end = time.perf_counter()
                record.wal_ms.append(1e3 * (end - start))
                run.tracer.record("wal.append_batch", start, end, number)  # type: ignore[union-attr]
            if (batch + 1) % _SNAPSHOT_EVERY == 0:
                run.tick()
                self._snapshot_and_query(record, number)
        record.written_bytes += _wal_bytes(self.directory) - log_bytes
        record.splits = streaming.maintainer.stats.splits
        record.merges = streaming.maintainer.stats.merges
        self.rounds.append(record)

    def _checkpoint(self, record: _IngestRound) -> None:
        streaming = self.streaming
        assert streaming is not None
        record.dirty_chunks.append(len(streaming.maintainer.dirty_positions()))
        with self.run.operation("ingest_mixed: checkpoint"):
            start = time.perf_counter()
            report = streaming.checkpoint()
            record.checkpoint_ms.append(1e3 * (time.perf_counter() - start))
            record.written_bytes += report.segment_bytes

    def _snapshot_and_query(self, record: _IngestRound, number: int) -> None:
        streaming = self.streaming
        assert streaming is not None
        query = self.queries[number // _SNAPSHOT_EVERY]
        with self.run.operation(f"ingest_mixed: query after batch {number}") as op:
            start = time.perf_counter()
            snapshot = streaming.to_index()
            snapped = time.perf_counter()
            searcher = ChunkSearcher(snapshot)
            built = time.perf_counter()
            result = searcher.search(query, k=K, stop_rule=MaxChunks(APPROX_CHUNKS))
            done = time.perf_counter()
            record.snapshot_ms.append(1e3 * (snapped - start))
            record.query_ms.append(1e3 * (done - built))
            record.snapshot_query_ms.append(1e3 * (done - snapped))
            op.expect(
                len(result.neighbors) == K,
                f"returned {len(result.neighbors)} neighbours",
            )

    # -- recovery tail ----------------------------------------------------------

    def finish(self) -> None:
        streaming, directory, run = self.streaming, self.directory, self.run
        assert streaming is not None and directory is not None
        self.tail["bytes_per_user_byte"] = _directory_bytes(directory) / (
            len(self.live) * (streaming.dimensions * 4 + 4)
        )
        if self.scratch_wal is not None:
            self.tail["wal.bytes_per_op"] = self.scratch_wal.bytes_written / (
                ROUNDS * self._ops_per_round
            )
        recovery_ms: List[float] = []
        for attempt in range(_RECOVERIES):
            # The writer is still open and the log's tail un-checkpointed:
            # what a crash at this instant would leave behind.
            copy = directory.parent / f"recovered-{attempt}"
            shutil.copytree(directory, copy)
            with run.operation(f"ingest_mixed: recovery {attempt}") as op:
                start = time.perf_counter()
                recovered = StreamingChunkIndex.open(str(copy))
                recovery_ms.append(1e3 * (time.perf_counter() - start))
                try:
                    if attempt == 0:
                        self._check_recovered(op, recovered, copy)
                finally:
                    recovered.close()
            shutil.rmtree(copy, ignore_errors=True)
        self.tail["recovery_p50_ms"] = stats.nearest_rank(recovery_ms, 50.0)

    def _check_recovered(
        self, op: Operation, recovered: StreamingChunkIndex, copy: Path
    ) -> None:
        run = self.run
        assert recovered.recovery is not None
        self.tail["ingest.replayed_batches"] = float(recovered.recovery.replayed_batches)
        snapshot = recovered.to_index()
        ids = np.concatenate(
            [snapshot.read_chunk(c)[0] for c in range(snapshot.n_chunks)]
        )
        op.expect(
            ids.size == len(self.live) and set(ids.tolist()) == self.live,
            "recovered ids differ from the acknowledged batches",
        )
        start = time.perf_counter()
        report = verify_streaming_index(str(copy))
        self.tail["ingest.verify_s"] = time.perf_counter() - start
        op.expect(bool(report["ok"]), "verify_streaming_index failed")
        if run.tracer is not None:
            log = max(copy.glob("wal-*.log"), key=lambda p: p.stat().st_size)
            start = time.perf_counter()
            scan_wal(str(log))
            self.tail["wal.scan_mb_per_s"] = (
                log.stat().st_size / 1e6 / (time.perf_counter() - start)
            )
            start = time.perf_counter()
            recovered.rebuild_base()
            self.tail["ingest.rebuild_base_s"] = time.perf_counter() - start

    # -- metrics --------------------------------------------------------------

    def gated_rounds(self) -> Tuple[List[float], List[float]]:
        return (
            [stats.nearest_rank(r.apply_ms, 50.0) for r in self.rounds],
            [self._ops_per_round / r.busy_s for r in self.rounds],
        )

    def metrics(self) -> Dict[str, float]:
        rounds = self.rounds
        apply_ms = [r.apply_ms for r in rounds]
        pooled_apply = [ms for r in apply_ms for ms in r]
        apply_p50 = stats.p50_of_rounds(apply_ms)
        checkpoints = [ms for r in rounds for ms in r.checkpoint_ms]
        dirty = [d for r in rounds for d in r.dirty_chunks]
        record_bytes = self.scale.ingest_base.dimensions * 4 + 4
        user_bytes = len(rounds) * self.scale.ingest_batches * (
            _INSERTS_PER_BATCH * record_bytes + _DELETES_PER_BATCH * 4
        )
        out = {
            "checkpoint_p50_ms": stats.nearest_rank(checkpoints, 50.0),
            "snapshot_p50_ms": stats.p50_of_rounds([r.snapshot_ms for r in rounds]),
            "query_p50_ms": stats.p50_of_rounds([r.query_ms for r in rounds]),
            "ingest.query_after_snapshot_ms_p50":
                stats.p50_of_rounds([r.snapshot_query_ms for r in rounds]),
            "ingest.apply_p95_ms": stats.tail(pooled_apply, 95.0).value,
            "ingest.write_amplification":
                sum(r.written_bytes for r in rounds) / user_bytes,
            "ingest.dirty_chunks_per_checkpoint": sum(dirty) / max(1, len(dirty)),
            "ingest.splits": float(rounds[-1].splits),
            "ingest.merges": float(rounds[-1].merges),
        }
        out.update(self.tail)
        out.update(self.setup_counts)
        if self.run.tracer is not None:
            wal_ms = [r.wal_ms for r in rounds]
            wal_p50 = stats.p50_of_rounds(wal_ms)
            traced = sum(sum(r.apply_ms) + sum(r.wal_ms) for r in rounds)
            untraced = sum(sum(r.apply_ms) for r in rounds)
            out.update({
                "wal.append_ms_p50": wal_p50,
                "ingest.apply_self_ms_p50": apply_p50 - wal_p50,
                "trace.overhead_fraction": (traced - untraced) / untraced,
            })
        return out
