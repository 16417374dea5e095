"""Degraded execution: searches must survive injected and real storage
faults with the loss quantified in the trace.

Contracts under test (the ISSUE's acceptance gates):

* a zero-rate injector is *bit-identical* to running without one — ids,
  stop reasons, and every simulated timestamp — for a cohort of one and
  a cohort of N, over SR-tree and BAG indexes;
* at positive fault rates no query raises, every abandoned chunk appears
  in the trace as a skip, and exactness claims are withdrawn
  (``degraded`` implies ``not completed``);
* a cohort of N reproduces N cohorts of one's faulted outcomes exactly,
  at any worker count, and both replay against the independent
  references (``replay_oracle.ReplayOracle``);
* real on-disk corruption (a flipped bit caught by the CRC layer) is
  skipped-and-continued when an injector is present, and propagates
  when not;
* under an injector every visited chunk is read and CRC-verified once,
  pruned or not, but only a scanned chunk is promoted to float64;
* the probe reads the store itself: a proxy store sees every visit of a
  cohort of one read, and each chunk of a cohort of N read on its first
  visit, in visit order; a chunk whose CRC fails is read (and marked
  failed) once per cohort;
* the per-query outcome table changes nothing: an injector whose table
  leaves every visit to ``outcome()`` gives the same results, trace
  columns, fault marks and chunk-cache stats, through a breaker guard and
  a chunk cache, for a cohort and for cohorts of one.
"""

import collections
import dataclasses
import types

import numpy as np
import pytest

from repro.chunking.bag import BagClusterer, estimate_mpi
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk_index import ChunkIndex, build_chunk_index
from repro.core.ground_truth import exact_knn
from repro.core.search import ChunkSearcher
from repro.core.stop_rules import MaxChunks
from repro.storage import chunk_file
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_NONE, FaultPlan
from repro.service.breaker import (
    BREAKER_SKIP_OUTCOME,
    BreakerBoard,
    BreakerGuardedInjector,
)
from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.simio.chunk_cache import LruChunkCache
from repro.storage.errors import ChecksumError
from repro.storage.pages import PageGeometry
from replay_oracle import ReplayOracle

CHUNKER_FACTORIES = {
    "srtree": lambda collection: SRTreeChunker(leaf_capacity=7),
    "bag": lambda collection: BagClusterer(
        mpi=estimate_mpi(collection, seed=3),
        target_clusters=5,
    ),
}


def make_index(collection, chunker_name):
    chunker = CHUNKER_FACTORIES[chunker_name](collection)
    result = chunker.form_chunks(collection)
    return build_chunk_index(result.retained, result.chunk_set)


def make_queries(n, dims, seed=97):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dims)) * 4.0


def injector(rate, seed=42):
    plan = FaultPlan.balanced(rate, seed=seed)
    return FaultInjector.from_cost_model(plan, PAPER_2005_COST_MODEL)


def assert_results_identical(got, want, replay, query, query_index=0):
    """Every observable equal to the bit — no tolerances anywhere — and
    replayable against the independent references."""
    replay.check(query, got, query_index=query_index)
    np.testing.assert_array_equal(got.neighbor_ids(), want.neighbor_ids())
    assert [n.distance for n in got.neighbors] == [
        n.distance for n in want.neighbors
    ]
    assert got.stop_reason == want.stop_reason
    assert got.completed == want.completed
    assert got.degraded == want.degraded
    assert got.elapsed_s == want.elapsed_s
    assert got.trace.start_elapsed_s == want.trace.start_elapsed_s
    assert got.trace.events == want.trace.events


def assert_results_equivalent(got, want, replay, query, query_index=0, truth=None):
    """Cross-cohort comparison: exact except kth_distance (BLAS may round
    a one-row and an N-row product differently in the last ulp)."""
    replay.check(query, got, query_index=query_index, truth=truth)
    np.testing.assert_array_equal(got.neighbor_ids(), want.neighbor_ids())
    assert got.stop_reason == want.stop_reason
    assert got.completed == want.completed
    assert got.degraded == want.degraded
    assert got.elapsed_s == want.elapsed_s
    assert len(got.trace) == len(want.trace)
    for g, w in zip(got.trace.events, want.trace.events):
        assert (g.chunk_id, g.rank, g.elapsed_s) == (
            w.chunk_id,
            w.rank,
            w.elapsed_s,
        )
        assert (g.skipped, g.fault, g.retries) == (
            w.skipped,
            w.fault,
            w.retries,
        )
        assert g.n_descriptors == w.n_descriptors
        assert g.neighbors_found == w.neighbors_found
        assert g.true_matches == w.true_matches
        assert g.kth_distance == pytest.approx(w.kth_distance, rel=1e-12)


class TestZeroRateBitIdentity:
    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_sequential_unchanged_under_null_injector(
        self, tiny_collection, chunker_name
    ):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(10, tiny_collection.dimensions)
        searcher = ChunkSearcher(index)
        replay = ReplayOracle(index, k=7, faults=injector(0.0))
        for i, q in enumerate(queries):
            baseline = searcher.search(q, k=7)
            nulled = searcher.search_batch(
                [q], k=7, faults=injector(0.0), query_indices=[i]
            )[0]
            assert_results_identical(nulled, baseline, replay, q, i)
            assert not nulled.degraded
            assert nulled.trace.coverage_fraction == 1.0
            assert nulled.chunks_skipped == 0

    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_batch_unchanged_under_null_injector(
        self, tiny_collection, chunker_name
    ):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(10, tiny_collection.dimensions)
        searcher = ChunkSearcher(index)
        baseline = searcher.search_batch(queries, k=7)
        nulled = searcher.search_batch(queries, k=7, faults=injector(0.0))
        replay = ReplayOracle(index, k=7, faults=injector(0.0))
        for i, (got, want) in enumerate(zip(nulled, baseline)):
            assert_results_identical(got, want, replay, queries[i], i)


class TestFaultedExecution:
    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_no_query_raises_and_skips_are_traced(
        self, tiny_collection, chunker_name
    ):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(16, tiny_collection.dimensions, seed=23)
        searcher = ChunkSearcher(index)
        faults = injector(0.35)
        saw_skip = saw_degraded = False
        for i, q in enumerate(queries):
            result = searcher.search_batch(
                [q], k=7, faults=faults, query_indices=[i]
            )[0]
            skips = [e for e in result.trace.events if e.skipped]
            # Empty results are legal only in the total-loss case.
            if not result.neighbors:
                assert len(skips) == len(result.trace)
            assert result.chunks_skipped == len(skips)
            assert result.degraded == bool(skips)
            if skips:
                saw_skip = saw_degraded = True
                assert not result.completed
                assert result.trace.coverage_fraction < 1.0
                for event in skips:
                    assert event.fault != FAULT_NONE
                # A skip scans nothing, so the running neighbor count
                # cannot change across it.
                events = result.trace.events
                for prev, event in zip(events, events[1:]):
                    if event.skipped:
                        assert event.neighbors_found == prev.neighbors_found
            else:
                assert result.trace.coverage_fraction == 1.0
        assert saw_skip and saw_degraded  # rate 0.35 must actually bite

    def test_degraded_proof_is_not_an_exactness_claim(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(20, tiny_collection.dimensions, seed=31)
        searcher = ChunkSearcher(index)
        faults = injector(0.4)
        reasons = set()
        for i, q in enumerate(queries):
            result = searcher.search_batch(
                [q], k=5, faults=faults, query_indices=[i]
            )[0]
            reasons.add(result.stop_reason)
            if result.degraded:
                assert result.stop_reason in ("proof-degraded", "exhausted")
                assert not result.completed
            elif result.stop_reason == "completed":
                assert result.completed
        assert "proof-degraded" in reasons or "exhausted" in reasons

    def test_spikes_and_retries_cost_time_but_not_quality(
        self, tiny_collection
    ):
        """A spike/retry-only plan (no persistent faults, enough retries)
        returns the same neighbors as a clean run, later."""
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(8, tiny_collection.dimensions, seed=7)
        searcher = ChunkSearcher(index)
        plan = FaultPlan(seed=9, spike_rate=0.5)
        faults = FaultInjector(plan, PAPER_2005_COST_MODEL.disk)
        slowed = 0
        for i, q in enumerate(queries):
            clean = searcher.search(q, k=5)
            spiky = searcher.search_batch([q], k=5, faults=faults, query_indices=[i])[0]
            np.testing.assert_array_equal(
                spiky.neighbor_ids(), clean.neighbor_ids()
            )
            assert not spiky.degraded
            assert spiky.elapsed_s >= clean.elapsed_s
            slowed += spiky.elapsed_s > clean.elapsed_s
        assert slowed > 0

    def test_stop_rule_still_respected_under_faults(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(6, tiny_collection.dimensions, seed=3)
        searcher = ChunkSearcher(index)
        faults = injector(0.3)
        for i, q in enumerate(queries):
            result = searcher.search_batch(
                [q], k=5, stop_rule=MaxChunks(2), faults=faults, query_indices=[i]
            )[0]
            assert len(result.trace) <= 2


class TestBatchEquivalenceUnderFaults:
    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    @pytest.mark.parametrize("rate", [0.1, 0.35])
    def test_batch_matches_sequential(
        self, tiny_collection, chunker_name, rate
    ):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(12, tiny_collection.dimensions, seed=11)
        truth = [exact_knn(tiny_collection, q, 7) for q in queries]
        faults = injector(rate)
        sequential = ChunkSearcher(index)
        wanted = [
            sequential.search_batch(
                [q], k=7, true_neighbor_ids=[truth[i]], faults=faults,
                query_indices=[i],
            )[0]
            for i, q in enumerate(queries)
        ]
        batch = ChunkSearcher(index).search_batch(
            queries, k=7, true_neighbor_ids=truth, faults=faults
        )
        assert len(batch) == len(wanted)
        replay = ReplayOracle(index, k=7, faults=faults)
        for i, (got, want) in enumerate(zip(batch, wanted)):
            assert_results_equivalent(got, want, replay, queries[i], i, truth[i])


class PerVisit:
    """A guard whose outcome table decides nothing: every visit asks
    ``outcome()``, as each did before the table existed — the breaker's
    region test first, then the guard's own answer."""

    def __init__(self, guard):
        self._guard = guard

    def outcome(self, query_id, chunk_id, page_count, readable=True):
        guard = self._guard
        if guard._board.region_of(chunk_id) in guard._blocked:
            return BREAKER_SKIP_OUTCOME
        return guard.outcome(query_id, chunk_id, page_count, readable=readable)

    def outcome_table(self, query_id, n_chunks):
        return [None] * n_chunks


class TestOutcomeTableEquivalence:
    def run(self, index, queries, truth, cohort, per_visit):
        """Search ``queries`` through a guard with regions 1 and the short
        last one blocked and a three-chunk cache, replaying every result in
        order; returns the results and the cache's stats."""
        page_bytes = PAPER_2005_COST_MODEL.disk.page_bytes

        def model():
            return dataclasses.replace(
                PAPER_2005_COST_MODEL,
                chunk_cache=LruChunkCache(capacity_bytes=3 * page_bytes),
            )

        def guarded():
            board = BreakerBoard(n_chunks=index.n_chunks, region_size=2)
            last = board.n_regions - 1
            assert index.n_chunks % 2 and last > 1
            return BreakerGuardedInjector(injector(0.35), board, frozenset({1, last}))

        cost_model = model()
        searcher = ChunkSearcher(index, cost_model=cost_model)
        faults = PerVisit(guarded()) if per_visit else guarded()
        if cohort:
            results = list(searcher.search_batch(
                queries, k=7, true_neighbor_ids=truth, faults=faults
            ))
        else:
            results = [
                searcher.search_batch(
                    [q], k=7, true_neighbor_ids=[truth[i]], faults=faults,
                    query_indices=[i],
                )[0]
                for i, q in enumerate(queries)
            ]
        replay = ReplayOracle(
            index, k=7, cost_model=model(), faults=PerVisit(guarded())
        )
        for i, result in enumerate(results):
            replay.check(queries[i], result, query_index=i, truth=truth[i])
        return results, cost_model.chunk_cache.stats()

    @pytest.mark.parametrize("cohort", [True, False], ids=["cohort", "one-by-one"])
    def test_table_equals_per_visit_outcomes(self, tiny_collection, cohort):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(12, tiny_collection.dimensions, seed=11)
        truth = [exact_knn(tiny_collection, q, 7) for q in queries]
        got, got_cache = self.run(index, queries, truth, cohort, per_visit=False)
        want, want_cache = self.run(index, queries, truth, cohort, per_visit=True)
        assert got_cache == want_cache and got_cache["evictions"] > 0
        columns = ("chunk_ids", "elapsed", "n_descriptors", "neighbors_found",
                   "kth_distance", "true_matches", "faults")
        kinds = set()
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g.neighbor_ids(), w.neighbor_ids())
            assert [n.distance for n in g.neighbors] == [n.distance for n in w.neighbors]
            assert (g.stop_reason, g.completed, g.degraded) == (
                w.stop_reason, w.completed, w.degraded
            )
            assert g.trace.start_elapsed_s == w.trace.start_elapsed_s
            for column in columns:
                assert getattr(g.trace, column) == getattr(w.trace, column), column
            # No clean visit leaves a mark.
            assert (False, FAULT_NONE, 0) not in g.trace.faults.values()
            kinds.update(fault for _, fault, _ in g.trace.faults.values())
        # Breaker skips, injected failures and spikes all took part.
        assert {"breaker-open", "latency-spike"} <= kinds and len(kinds) >= 4


class CountingStore:
    """Proxy for ``ChunkIndex.store``, shaped like the benchmark's
    ``RecordingStore``: logs the chunk id of every ``read_chunk`` call."""

    def __init__(self, inner):
        self._inner = inner
        self.reads = []

    def __len__(self):
        return len(self._inner)

    def read_chunk(self, chunk_id):
        self.reads.append(chunk_id)
        return self._inner.read_chunk(chunk_id)

    def close(self):
        """The real store is closed through the index that owns it."""


def probe_reads(results, shared):
    """The reads the probe makes: every visit, in visit order; a cohort
    of N only each chunk's first (a chunk that failed stays failed)."""
    seen, reads = set(), []
    for result in results:
        for chunk_id in result.trace.chunk_ids:
            if not (shared and chunk_id in seen):
                reads.append(chunk_id)
            seen.add(chunk_id)
    return reads


class TestProbeReads:
    @pytest.mark.parametrize("cohort", [True, False], ids=["cohort", "one-by-one"])
    def test_store_sees_the_probe_reads(self, tiny_collection, cohort):
        built = make_index(tiny_collection, "srtree")
        store = CountingStore(built.store)
        index = dataclasses.replace(built, store=store)
        queries = make_queries(9, tiny_collection.dimensions, seed=23)
        searcher = ChunkSearcher(index)
        faults = injector(0.35)
        if cohort:
            results = list(searcher.search_batch(queries, k=5, faults=faults))
        else:
            results = [
                searcher.search_batch([q], k=5, faults=faults, query_indices=[i])[0]
                for i, q in enumerate(queries)
            ]
        assert any(r.chunks_skipped for r in results)
        assert store.reads == probe_reads(results, shared=cohort)
        if cohort:
            assert len(set(store.reads)) == len(store.reads)

    def test_a_crc_failure_is_read_once_per_cohort(self, tmp_path, tiny_collection):
        loaded = TestRealCorruption().make_damaged_index(tmp_path, tiny_collection)
        with loaded:
            store = CountingStore(loaded.store)
            index = dataclasses.replace(loaded, store=store)
            queries = make_queries(6, tiny_collection.dimensions, seed=17)
            batch = list(ChunkSearcher(index).search_batch(queries, k=5, faults=injector(0.0)))
            visits = [e for r in batch for e in r.trace.events if e.chunk_id == 0]
            assert len(visits) > 1
            assert all(e.skipped and e.fault == "corrupt" for e in visits)
            assert store.reads.count(0) == 1
            assert store.reads == probe_reads(batch, shared=True)


class TestRealCorruption:
    def make_damaged_index(self, tmp_path, tiny_collection):
        """Save an index to disk, then flip a payload bit in chunk 0."""
        index = make_index(tiny_collection, "srtree")
        directory = str(tmp_path / "index")
        index.save(directory)
        path = f"{directory}/base-000000.dat"
        page_bytes = PageGeometry().page_bytes
        offset = page_bytes * (1 + index.metas[0].page_offset) + 5
        with open(path, "r+b") as f:
            f.seek(offset)
            value = f.read(1)[0]
            f.seek(offset)
            f.write(bytes([value ^ 0x10]))
        return ChunkIndex.load(directory, tiny_collection.dimensions)

    def test_checksum_failure_skipped_with_injector(
        self, tmp_path, tiny_collection
    ):
        with self.make_damaged_index(tmp_path, tiny_collection) as loaded:
            searcher = ChunkSearcher(loaded)
            queries = make_queries(5, tiny_collection.dimensions, seed=13)
            hit_damage = False
            for i, q in enumerate(queries):
                result = searcher.search_batch(
                    [q], k=5, faults=injector(0.0), query_indices=[i]
                )[0]
                damaged = [
                    e
                    for e in result.trace.events
                    if e.chunk_id == 0 and e.skipped
                ]
                clean = [
                    e
                    for e in result.trace.events
                    if e.chunk_id == 0 and not e.skipped
                ]
                assert not clean  # chunk 0 can never be scanned
                if damaged:
                    hit_damage = True
                    assert result.degraded and not result.completed
                    assert damaged[0].fault == "corrupt"
            assert hit_damage

    def test_checksum_failure_raises_without_injector(
        self, tmp_path, tiny_collection
    ):
        with self.make_damaged_index(tmp_path, tiny_collection) as loaded:
            searcher = ChunkSearcher(loaded)
            queries = make_queries(5, tiny_collection.dimensions, seed=13)
            with pytest.raises(ChecksumError):
                for q in queries:
                    searcher.search(q, k=5)

    def test_batch_reads_damaged_chunk_once(self, tmp_path, tiny_collection):
        with self.make_damaged_index(tmp_path, tiny_collection) as loaded:
            queries = make_queries(6, tiny_collection.dimensions, seed=17)
            batch = ChunkSearcher(loaded).search_batch(
                queries, k=5, faults=injector(0.0)
            )
            for result in batch:
                assert all(
                    e.skipped for e in result.trace.events if e.chunk_id == 0
                )


class TestReadableButNotPromoted:
    """The degraded path must know whether a visited chunk is readable (the
    fault outcome, and so the timing, depends on it), which takes a read and
    its CRC check; it takes no float64 copy unless the chunk is scanned."""

    def save(self, tmp_path, collection):
        result = SRTreeChunker(leaf_capacity=8).form_chunks(collection)
        index = build_chunk_index(result.retained, result.chunk_set)
        directory = str(tmp_path / "index")
        index.save(directory)
        return directory

    def instrument(self, monkeypatch, index):
        """Count chunk reads per page offset, CRC checks and float32 ->
        float64 promotions, and name the chunks whose vectors were promoted
        (scanned), by the read that handed them out."""
        seen = types.SimpleNamespace(
            reads=collections.Counter(), crcs=0, promotions=0, scanned=set(),
            read_by=[],
        )
        chunk_at = {meta.page_offset: c for c, meta in enumerate(index.metas)}
        read_chunk = chunk_file.ChunkFileReader.read_chunk

        def counting_read(reader, extent):
            seen.reads[extent.page_offset] += 1
            ids, vectors = read_chunk(reader, extent)
            # Kept alive beside its chunk id, so an identity is never reused.
            seen.read_by.append((chunk_at[extent.page_offset], vectors))
            return ids, vectors

        crc32 = chunk_file.zlib.crc32

        def counting_crc(data, *value):
            seen.crcs += 1
            return crc32(data, *value)

        promote = np.ascontiguousarray

        def counting_promote(a, dtype=None, **kwargs):
            if dtype is np.float64 and np.asarray(a).dtype == np.float32:
                seen.promotions += 1
                seen.scanned.update(c for c, v in seen.read_by if v is a)
            return promote(a, dtype=dtype, **kwargs)

        monkeypatch.setattr(chunk_file.ChunkFileReader, "read_chunk", counting_read)
        monkeypatch.setattr(
            chunk_file, "zlib", types.SimpleNamespace(crc32=counting_crc)
        )
        monkeypatch.setattr(np, "ascontiguousarray", counting_promote)
        return seen

    @staticmethod
    def pruned(results, seen):
        """Chunks visited and readable but never scanned."""
        visited = {
            e.chunk_id for r in results for e in r.trace.events if not e.skipped
        }
        return visited - seen.scanned

    def test_single_query_reads_every_visit_promotes_every_scan(
        self, tmp_path, clutter_collection, monkeypatch
    ):
        directory = self.save(tmp_path, clutter_collection)
        queries = make_queries(6, clutter_collection.dimensions, seed=5) / 4.0
        with ChunkIndex.load(directory, clutter_collection.dimensions) as loaded:
            searcher = ChunkSearcher(loaded)
            saw_pruned = False
            for i, q in enumerate(queries):
                seen = self.instrument(monkeypatch, loaded)
                result = searcher.search_batch(
                    [q], k=3, faults=injector(0.0), query_indices=[i]
                )[0]
                monkeypatch.undo()
                visited = len(result.trace)
                scanned = visited - result.chunks_pruned - result.chunks_skipped
                assert result.chunks_skipped == 0
                assert sorted(seen.reads.values()) == [1] * visited
                assert seen.crcs == visited
                assert seen.promotions == scanned == len(seen.scanned)
                saw_pruned |= result.chunks_pruned > 0
            assert saw_pruned

    def test_cohort_reads_once_and_promotes_once_per_scanned_chunk(
        self, tmp_path, clutter_collection, monkeypatch
    ):
        directory = self.save(tmp_path, clutter_collection)
        queries = make_queries(8, clutter_collection.dimensions, seed=5) / 4.0
        with ChunkIndex.load(directory, clutter_collection.dimensions) as loaded:
            searcher = ChunkSearcher(loaded)
            seen = self.instrument(monkeypatch, loaded)
            batch = searcher.search_batch(queries, k=3, faults=injector(0.0))
            monkeypatch.undo()
            visited = {e.chunk_id for r in batch for e in r.trace.events}
            assert set(seen.reads.values()) == {1}
            assert len(seen.reads) == seen.crcs == len(visited)
            assert self.pruned(batch, seen)
            assert seen.promotions == len(seen.scanned)

    def test_damage_in_a_pruned_chunk_is_still_a_corrupt_skip(
        self, tmp_path, clutter_collection, monkeypatch
    ):
        directory = self.save(tmp_path, clutter_collection)
        query = make_queries(1, clutter_collection.dimensions, seed=5)[0] / 4.0
        with ChunkIndex.load(directory, clutter_collection.dimensions) as loaded:
            seen = self.instrument(monkeypatch, loaded)
            clean = ChunkSearcher(loaded).search_batch(
                [query], k=3, faults=injector(0.0)
            )[0]
            monkeypatch.undo()
            victim = min(self.pruned([clean], seen))
            meta = loaded.metas[victim]
        # Flip a byte of the victim's first descriptor record.
        offset = PageGeometry().page_bytes * (1 + meta.page_offset) + 5
        with open(f"{directory}/base-000000.dat", "r+b") as f:
            f.seek(offset)
            value = f.read(1)[0]
            f.seek(offset)
            f.write(bytes([value ^ 0x10]))
        with ChunkIndex.load(directory, clutter_collection.dimensions) as damaged:
            result = ChunkSearcher(damaged).search_batch(
                [query], k=3, faults=injector(0.0)
            )[0]
        [event] = [e for e in result.trace.events if e.chunk_id == victim]
        assert event.skipped and event.fault == "corrupt"
        assert result.degraded and not result.completed
        assert clean.completed and not clean.degraded


class TestSearcherOwnership:
    def test_searchers_close_their_index(self, tmp_path, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        directory = str(tmp_path / "index")
        index.save(directory)
        loaded = ChunkIndex.load(directory, tiny_collection.dimensions)
        with ChunkSearcher(loaded) as searcher:
            searcher.search(make_queries(1, tiny_collection.dimensions)[0], k=3)
        with pytest.raises(ValueError):
            loaded.read_chunk(0)  # underlying reader is closed

    def test_batch_searcher_context_manager(self, tmp_path, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        directory = str(tmp_path / "index")
        index.save(directory)
        loaded = ChunkIndex.load(directory, tiny_collection.dimensions)
        queries = make_queries(3, tiny_collection.dimensions)
        with ChunkSearcher(loaded) as searcher:
            searcher.search_batch(queries, k=3)
        with pytest.raises(ValueError):
            loaded.read_chunk(0)
