"""``single_approx``, ``single_exact`` and ``batch_trace``.

All three search the same main collection.  The two ``single_*``
workloads go through the on-disk index one query at a time; their
per-layer numbers come from a store proxy (chunk reads) and a replay of
the layer calls each query's ``SearchTrace`` names.  ``batch_trace``
keeps the chunks in memory and drives the batch engine.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    BatchChunkSearcher,
    ChunkIndex,
    ChunkSearcher,
    DescriptorCollection,
    ExactCompletion,
    MaxChunks,
    NeighborSet,
    SRTreeChunker,
    build_chunk_index,
    exact_knn_batch,
    precision_at_k,
)
from repro.core.distance import squared_distances

from . import stats
from .data import KIND_DQ, KIND_SQ, Collection, generate_collection, query_pool
from .reference import brute_force_knn
from .runner import APPROX_CHUNKS, K, ROUNDS, Operation, Run, SetupTimer, Workload
from .tracing import Tracer, self_times, total_by_name

_WARM_UP_QUERIES = 16  # the last of the pool; no round reaches them
# Queries between yardstick ticks inside a round, about 0.2-0.4 s.
_APPROX_TICK_EVERY = 160
_EXACT_TICK_EVERY = 4
# A traced run re-runs and replays every ninth query (odd, so DQ and SQ
# alternate): tracing them all would triple the run.
_TRACE_EVERY = 9


class RecordingStore:
    """Proxy for ``ChunkIndex.store``: times each ``read_chunk`` as a
    ``storage.read_chunk`` span and keeps what was read for the replay."""

    def __init__(self, inner: object, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.query = -1
        self.reads: List[Tuple[np.ndarray, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self._inner)  # type: ignore[arg-type]

    def read_chunk(self, chunk_id: int) -> Tuple[np.ndarray, np.ndarray]:
        start = time.perf_counter()
        payload = self._inner.read_chunk(chunk_id)  # type: ignore[attr-defined]
        self._tracer.record(
            "storage.read_chunk", start, time.perf_counter(), self.query
        )
        self.reads.append(payload)
        return payload

    def close(self) -> None:
        """The real store is closed through the index that owns it."""


def chunk_stats(index: ChunkIndex) -> Dict[str, float]:
    sizes = index.descriptor_counts()
    return {
        "chunking.n_chunks": float(index.n_chunks),
        "chunking.size_max_over_mean": float(sizes.max() / sizes.mean()),
    }


class _MainCollectionWorkload(Workload):
    """Input generation and chunk forming shared by the three workloads."""

    pool_size = 0
    reference_queries = 0  # leading pool queries with a brute-force answer

    def __init__(self, run: Run):
        super().__init__(run)
        self.collection: Optional[Collection] = None
        self.queries = np.empty((0, 0))
        self.kinds = np.empty(0, dtype=np.int8)
        self.reference = np.empty((0, K), dtype=np.int64)
        self.setup_counts: Dict[str, float] = {}
        self.user_bytes = 0

    def make_inputs(self) -> None:
        spec = self.scale.main
        collection = generate_collection(spec, self.run.seed)
        pool = query_pool(collection, spec, self.run.seed, self.pool_size)
        self.collection, self.queries, self.kinds = collection, pool.queries, pool.kinds
        self.user_bytes = spec.n_descriptors * (spec.dimensions * 4 + 4)
        n_ref = self.reference_queries
        self.reference = self.run.cache.get(
            "knn",
            {"spec": spec.key(), "seed": self.run.seed, "pool": self.pool_size,
             "queries": n_ref, "k": K},
            lambda: {"ids": brute_force_knn(
                collection.vectors, collection.ids, pool.queries[:n_ref], K)},
        )["ids"]

    def _form_index(self, timer: SetupTimer) -> ChunkIndex:
        raw = self.collection
        assert raw is not None
        collection = DescriptorCollection(raw.vectors, raw.ids, raw.image_ids)
        chunking = timer.time(
            "chunking.form_chunks_s",
            lambda: SRTreeChunker(self.scale.main_leaf).form_chunks(collection),
        )
        index = timer.time(
            "chunk_index.build_s",
            lambda: build_chunk_index(
                chunking.retained, chunking.chunk_set, name=self.name
            ),
        )
        self.setup_counts = chunk_stats(index)
        return index

    def drop_inputs(self) -> None:
        self.collection = None

    def _expect_exact(self, op: Operation, pool_index: int, ids: np.ndarray) -> None:
        op.expect(
            np.array_equal(ids, self.reference[pool_index]),
            f"query {pool_index} differs from the brute-force reference",
        )


@dataclasses.dataclass
class _QueryRound:
    """What one round of single queries recorded (parallel lists)."""

    latency_s: List[float] = dataclasses.field(default_factory=list)
    kind: List[int] = dataclasses.field(default_factory=list)
    sim_s: List[float] = dataclasses.field(default_factory=list)
    chunks_read: List[int] = dataclasses.field(default_factory=list)
    chunks_pruned: List[int] = dataclasses.field(default_factory=list)
    descriptors: List[int] = dataclasses.field(default_factory=list)
    completed: List[bool] = dataclasses.field(default_factory=list)
    recall: List[float] = dataclasses.field(default_factory=list)
    # traced runs only, one entry per traced query
    retraced_latency_s: List[float] = dataclasses.field(default_factory=list)  # untraced
    traced_latency_s: List[float] = dataclasses.field(default_factory=list)
    reads: List[int] = dataclasses.field(default_factory=list)
    read_bytes: List[int] = dataclasses.field(default_factory=list)
    scanned: List[int] = dataclasses.field(default_factory=list)
    admitted: List[int] = dataclasses.field(default_factory=list)


class SingleQueryWorkload(_MainCollectionWorkload):
    """One query at a time through ``ChunkSearcher`` over the saved,
    CRC-verified on-disk index."""

    exact = False
    op_alias = "query_p50_ms"
    rate_alias = "queries_per_s"

    def __init__(self, run: Run):
        super().__init__(run)
        if self.exact:
            self.round_size = self.scale.exact_round
            self.tick_every = _EXACT_TICK_EVERY
            self.reference_queries = ROUNDS * self.round_size
        else:
            self.round_size = self.scale.approx_round
            self.tick_every = _APPROX_TICK_EVERY
            self.reference_queries = self.scale.recall_queries
        self.pool_size = ROUNDS * self.round_size + _WARM_UP_QUERIES
        self.searcher: Optional[ChunkSearcher] = None
        self.traced_searcher: Optional[ChunkSearcher] = None
        self.store: Optional[RecordingStore] = None
        self.directory: Optional[Path] = None
        self.disk_bytes = 0
        self.rounds: List[_QueryRound] = []

    def _stop_rule(self):
        return ExactCompletion() if self.exact else MaxChunks(APPROX_CHUNKS)

    # -- set-up --------------------------------------------------------------

    def setup(self, workdir: Path, timer: SetupTimer) -> None:
        built = self._form_index(timer)
        directory = str(workdir)
        timer.time("chunk_index.save_s", lambda: built.save(directory))
        del built
        index = timer.time(
            "chunk_index.load_s",
            lambda: ChunkIndex.load(
                directory, self.scale.main.dimensions, name=self.name
            ),
        )
        self.searcher = timer.time(
            "search.searcher_build_s", lambda: ChunkSearcher(index)
        )
        self.directory = workdir
        self.disk_bytes = sum(p.stat().st_size for p in workdir.iterdir())
        if self.run.tracer is not None:
            self.store = RecordingStore(index.store, self.run.tracer)
            self.traced_searcher = ChunkSearcher(
                dataclasses.replace(index, store=self.store)
            )

    def teardown(self) -> None:
        if self.searcher is not None:
            self.searcher.close()
            self.searcher = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    def warm_up(self) -> None:
        assert self.searcher is not None
        for query in self.queries[-_WARM_UP_QUERIES:]:
            self.searcher.search(query, k=K, stop_rule=self._stop_rule())

    # -- measured rounds ------------------------------------------------------

    def round(self, index: int) -> None:
        searcher = self.searcher
        assert searcher is not None
        record = _QueryRound()
        rule = self._stop_rule()
        first = index * self.round_size
        for offset in range(self.round_size):
            pool_index = first + offset
            query = self.queries[pool_index]
            with self.run.operation(f"{self.name}: query {pool_index}") as op:
                start = time.perf_counter()
                result = searcher.search(query, k=K, stop_rule=rule)
                latency_s = time.perf_counter() - start
                ids = result.neighbor_ids()
                if self.exact:
                    self._expect_exact(op, pool_index, ids)
                elif pool_index < self.reference_queries:
                    record.recall.append(
                        precision_at_k(ids.tolist(), self.reference[pool_index])
                    )
                record.latency_s.append(latency_s)
                record.kind.append(int(self.kinds[pool_index]))
                record.sim_s.append(result.elapsed_s)
                record.chunks_read.append(result.chunks_read)
                record.chunks_pruned.append(result.chunks_pruned)
                record.descriptors.append(result.trace.descriptors_scanned)
                record.completed.append(result.completed)
                if self.run.tracer is not None and pool_index % _TRACE_EVERY == 0:
                    record.retraced_latency_s.append(latency_s)
                    self._trace_query(op, pool_index, query, result, record)
            if offset % self.tick_every == self.tick_every - 1:
                self.run.tick()
        self.rounds.append(record)

    def _trace_query(
        self, op: Operation, pool_index, query, result, record: _QueryRound
    ) -> None:
        """Re-run the query through the recording store, then re-issue and
        time the layer calls its trace names."""
        tracer, store, searcher = self.run.tracer, self.store, self.traced_searcher
        assert tracer is not None and store is not None and searcher is not None
        store.query, store.reads = pool_index, []
        start = time.perf_counter()
        with tracer.span("query", pool_index):
            again = searcher.search(query, k=K, stop_rule=self._stop_rule())
        traced_latency_s = time.perf_counter() - start
        reads = store.reads
        index = searcher.index

        with tracer.span("search.rank", pool_index):
            searcher.rank_chunks(query)
        with tracer.span("distance.kernel", pool_index):
            distances = [
                np.sqrt(squared_distances(query, vectors)) for _, vectors in reads
            ]
        neighbors = NeighborSet(K)
        admitted = 0
        with tracer.span("neighbors.update", pool_index):
            for distance, (ids, _) in zip(distances, reads):
                admitted += neighbors.update(distance, ids)
        with tracer.span("simio.charge", pool_index):
            simulator = searcher.cost_model.simulator()
            simulator.start_query(index.n_chunks, index.index_bytes)
            for event in result.trace.events:
                meta = index.metas[event.chunk_id]
                simulator.process_chunk(
                    meta.page_count, event.n_descriptors, page_offset=meta.page_offset
                )

        record.traced_latency_s.append(traced_latency_s)
        record.reads.append(len(reads))
        record_bytes = index.dimensions * 4 + 4
        scanned = sum(len(ids) for ids, _ in reads)
        record.read_bytes.append(scanned * record_bytes)
        record.scanned.append(scanned)
        record.admitted.append(admitted)
        replayed = [n.descriptor_id for n in neighbors.sorted()]
        op.expect(
            replayed == result.neighbor_ids().tolist()
            and replayed == again.neighbor_ids().tolist()
            and simulator.elapsed == result.elapsed_s,
            "the replay disagrees with the search",
        )

    # -- metrics --------------------------------------------------------------

    def gated_rounds(self) -> Tuple[List[float], List[float]]:
        return (
            [1e3 * stats.nearest_rank(r.latency_s, 50.0) for r in self.rounds],
            [len(r.latency_s) / sum(r.latency_s) for r in self.rounds],
        )

    def metrics(self) -> Dict[str, float]:
        rounds = self.rounds
        latency_ms = [[s * 1e3 for s in r.latency_s] for r in rounds]
        pooled = [ms for r in latency_ms for ms in r]
        by_kind = {
            kind: [ms for r, ms_r in zip(rounds, latency_ms)
                   for k, ms in zip(r.kind, ms_r) if k == kind]
            for kind in (KIND_DQ, KIND_SQ)
        }
        n = sum(len(r.latency_s) for r in rounds)
        chunks_read = sum(sum(r.chunks_read) for r in rounds)
        p95, p99 = stats.tail(pooled, 95.0), stats.tail(pooled, 99.0)
        out = {
            "sim_query_ms_mean": 1e3 * sum(sum(r.sim_s) for r in rounds) / n,
            "bytes_per_user_byte": self.disk_bytes / self.user_bytes,
            "search.chunks_read_per_query": chunks_read / n,
            "search.chunks_pruned_fraction":
                sum(sum(r.chunks_pruned) for r in rounds) / chunks_read,
            "search.descriptors_scanned_per_query":
                sum(sum(r.descriptors) for r in rounds) / n,
            "search.completed_fraction":
                sum(sum(r.completed) for r in rounds) / n,
            "search.dq_p50_ms": stats.nearest_rank(by_kind[KIND_DQ], 50.0),
            "search.sq_p50_ms": stats.nearest_rank(by_kind[KIND_SQ], 50.0),
            # A refused percentile falls back to the highest allowed one;
            # the sample count says which (p95 needs 200, p99 needs 1000).
            "search.query_p95_ms": p95.value,
            "search.query_p99_ms": p99.value,
            "search.tail_samples": float(p95.n),
            "simio.sim_over_host_ratio":
                sum(sum(r.sim_s) for r in rounds)
                / sum(sum(r.latency_s) for r in rounds),
        }
        recalls = [x for r in rounds for x in r.recall]
        if recalls:
            out["recall_at_30"] = sum(recalls) / len(recalls)
        out.update(self.setup_counts)
        if self.run.tracer is not None:
            out.update(self._layer_metrics())
        return out

    def _layer_metrics(self) -> Dict[str, float]:
        tracer = self.run.tracer
        assert tracer is not None
        spans = tracer.spans
        total = total_by_name(spans, [s.duration for s in spans])
        own = total_by_name(spans, self_times(spans))
        rounds = self.rounds
        n = sum(len(r.traced_latency_s) for r in rounds)
        ms_per_query = 1e3 / n  # seconds summed over queries -> ms per query
        replayed = ("search.rank", "distance.kernel", "neighbors.update", "simio.charge")
        layers = sum(total.get(name, 0.0) for name in replayed)
        reads_s = total.get("storage.read_chunk", 0.0)
        query_s = total["query"]
        read_us = [s.duration * 1e6 for s in spans if s.name == "storage.read_chunk"]
        untraced_s = sum(sum(r.retraced_latency_s) for r in rounds)
        traced_s = sum(sum(r.traced_latency_s) for r in rounds)
        scanned = sum(sum(r.scanned) for r in rounds)
        return {
            "search.rank_ms": ms_per_query * total.get("search.rank", 0.0),
            "simio.charge_ms": ms_per_query * total.get("simio.charge", 0.0),
            "neighbors.update_ms": ms_per_query * total.get("neighbors.update", 0.0),
            "distance.kernel_ms": ms_per_query * total.get("distance.kernel", 0.0),
            "storage.read_chunk_ms": ms_per_query * reads_s,
            # The query span's self time still holds the ranking, kernel,
            # heap and simulator work done inline; the replay prices them.
            "search.self_ms": ms_per_query * (own["query"] - layers),
            "trace.layer_fraction": (reads_s + layers) / query_s,
            "trace.overhead_fraction": (traced_s - untraced_s) / untraced_s,
            "storage.read_chunk_us_p50":
                stats.nearest_rank(read_us, 50.0) if read_us else 0.0,
            "storage.read_calls_per_query":
                sum(sum(r.reads) for r in rounds) / n,
            "storage.read_mb_per_query":
                sum(sum(r.read_bytes) for r in rounds) / n / 1e6,
            "distance.ns_per_descriptor":
                1e9 * total.get("distance.kernel", 0.0) / max(1, scanned),
            "neighbors.admitted_per_scanned":
                sum(sum(r.admitted) for r in rounds) / max(1, scanned),
        }


class SingleApprox(SingleQueryWorkload):
    name = "single_approx"
    exact = False


class SingleExact(SingleQueryWorkload):
    name = "single_exact"
    exact = True


class BatchTrace(_MainCollectionWorkload):
    """The figure-regeneration path: one batch with ground truth run to
    completion plus ``.traces()``, then one-query ``search_batch`` calls
    at the approximate budget, as the services issue them."""

    name = "batch_trace"
    op_alias = "batch.one_query_call_ms_p50"
    rate_alias = "queries_per_s"

    def __init__(self, run: Run):
        super().__init__(run)
        self.batch_size = self.scale.batch_size
        self.reference_queries = self.batch_size
        self.pool_size = (
            self.batch_size + ROUNDS * self.scale.batch_single_calls + _WARM_UP_QUERIES
        )
        self.searcher: Optional[BatchChunkSearcher] = None
        self.traced_searcher: Optional[BatchChunkSearcher] = None
        # One entry per round: host seconds of each batch run, of its
        # ``.traces()`` call, and the latency of each one-query call.
        self.batch_s: List[List[float]] = []
        self.traces_s: List[List[float]] = []
        self.call_ms: List[List[float]] = []
        self.events = 0  # trace events of one batch run
        self.sim_ms_mean = 0.0
        self.knn_ms_per_query = 0.0
        self.single_s_per_query = 0.0
        self.rank_s: List[float] = []
        self.traced_batch_s: List[float] = []

    def make_inputs(self) -> None:
        super().make_inputs()
        raw = self.collection
        assert raw is not None
        # The program's own exact scan must agree with the harness's
        # reference before anything is judged against the reference.
        subset = self.scale.reference_subset
        collection = DescriptorCollection(raw.vectors, raw.ids, raw.image_ids)
        with self.run.operation("reference: exact_knn_batch", n=subset) as op:
            start = time.perf_counter()
            ids = exact_knn_batch(collection, self.queries[:subset], K)
            self.knn_ms_per_query = 1e3 * (time.perf_counter() - start) / subset
            for position in range(subset):
                self._expect_exact(op, position, ids[position])

    def setup(self, workdir: Path, timer: SetupTimer) -> None:
        index = self._form_index(timer)
        self.searcher = timer.time(
            "search.searcher_build_s", lambda: BatchChunkSearcher(index)
        )
        if self.run.tracer is not None:
            store = RecordingStore(index.store, self.run.tracer)
            self.traced_searcher = BatchChunkSearcher(
                dataclasses.replace(index, store=store)
            )

    def teardown(self) -> None:
        self.searcher = None
        self.traced_searcher = None

    def warm_up(self) -> None:
        assert self.searcher is not None
        for query in self.queries[-_WARM_UP_QUERIES:]:
            self.searcher.search_batch(query, k=K, stop_rule=MaxChunks(APPROX_CHUNKS))

    def round(self, index: int) -> None:
        searcher, run = self.searcher, self.run
        assert searcher is not None
        batch = self.queries[: self.batch_size]
        truth = list(self.reference)
        batch_s: List[float] = []
        traces_s: List[float] = []
        for repeat in range(self.scale.batch_repeats):
            with run.operation("batch_trace: search_batch", n=self.batch_size) as op:
                start = time.perf_counter()
                result = searcher.search_batch(batch, k=K, true_neighbor_ids=truth)
                searched = time.perf_counter()
                traces = result.traces()
                done = time.perf_counter()
                for position, one in enumerate(result):
                    self._expect_exact(op, position, one.neighbor_ids())
                batch_s.append(done - start)
                traces_s.append(done - searched)
                self.events = sum(len(trace) for trace in traces)
                self.sim_ms_mean = 1e3 * result.mean_elapsed_s
                if index == 0 and repeat == 0:
                    self._check_against_sequential(result)
            run.tick()
        self.batch_s.append(batch_s)
        self.traces_s.append(traces_s)

        calls: List[float] = []
        n_calls = self.scale.batch_single_calls
        rule = MaxChunks(APPROX_CHUNKS)
        for offset in range(n_calls):
            pool_index = self.batch_size + index * n_calls + offset
            with run.operation(f"batch_trace: one-query call {pool_index}"):
                start = time.perf_counter()
                searcher.search_batch(self.queries[pool_index], k=K, stop_rule=rule)
                calls.append(1e3 * (time.perf_counter() - start))
        self.call_ms.append(calls)

        if run.tracer is not None:
            self._trace_round(batch, truth)

    def _check_against_sequential(self, result) -> None:
        """``search_batch`` must reproduce ``ChunkSearcher.search`` query
        by query on the reference subset: ids and stop reasons."""
        assert self.searcher is not None
        subset = self.scale.reference_subset
        sequential = ChunkSearcher(self.searcher.index)
        with self.run.operation("batch_trace: ChunkSearcher.search", n=subset) as op:
            start = time.perf_counter()
            singles = [sequential.search(q, k=K) for q in self.queries[:subset]]
            self.single_s_per_query = (time.perf_counter() - start) / subset
            for position, single in enumerate(singles):
                op.expect(
                    np.array_equal(single.neighbor_ids(), result[position].neighbor_ids())
                    and single.stop_reason == result[position].stop_reason,
                    f"query {position} differs from search_batch",
                )

    def _trace_round(self, batch: np.ndarray, truth: Sequence[np.ndarray]) -> None:
        tracer, searcher = self.run.tracer, self.traced_searcher
        assert tracer is not None and searcher is not None
        start = time.perf_counter()
        with tracer.span("batch.rank"):
            searcher.rank_chunks_batch(batch)
        self.rank_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        with tracer.span("batch.search_batch"):
            searcher.search_batch(batch, k=K, true_neighbor_ids=truth)
        self.traced_batch_s.append(time.perf_counter() - start)

    def gated_rounds(self) -> Tuple[List[float], List[float]]:
        return (
            [stats.nearest_rank(calls, 50.0) for calls in self.call_ms],
            [self.batch_size * len(r) / sum(r) for r in self.batch_s],
        )

    def metrics(self) -> Dict[str, float]:
        batch_s = stats.median([stats.median(r) for r in self.batch_s])
        out = {
            "sim_query_ms_mean": self.sim_ms_mean,
            "batch.search_batch_s": batch_s,
            "batch.traces_ms_per_query":
                1e3 * stats.median([stats.median(r) for r in self.traces_s])
                / self.batch_size,
            "batch.events_per_s": self.events / batch_s,
            "batch.vs_single_speedup":
                self.single_s_per_query / (batch_s / self.batch_size),
            "ground_truth.exact_knn_batch_ms_per_query": self.knn_ms_per_query,
        }
        out.update(self.setup_counts)
        if self.run.tracer is not None:
            traced = stats.median(self.traced_batch_s)
            out["batch.rank_ms_per_query"] = (
                1e3 * stats.median(self.rank_s) / self.batch_size
            )
            out["trace.overhead_fraction"] = (traced - batch_s) / batch_s
        return out
