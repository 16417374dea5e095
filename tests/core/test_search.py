"""Tests for the ranked chunk-scan search algorithm.

The load-bearing property: a run-to-completion search must return exactly
the sequential scan's k-NN, for any chunking of the collection.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.chunking.round_robin import RoundRobinChunker
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk_index import ChunkIndex, build_chunk_index
from repro.core.ground_truth import exact_knn
from repro.core.search import (
    RANK_BY_CENTROID,
    RANK_BY_LOWER_BOUND,
    ChunkSearcher,
)
from repro.core.stop_rules import DeadlineBudget, MaxChunks, StopRule, TimeBudget
from descriptors import from_vectors, sphere_lower_bound


def make_index(collection, chunker):
    result = chunker.form_chunks(collection)
    return build_chunk_index(result.retained, result.chunk_set)


@pytest.fixture()
def sr_index(tiny_collection):
    return make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))


class TestExactness:
    @pytest.mark.parametrize(
        "chunker",
        [
            SRTreeChunker(leaf_capacity=7),
            RoundRobinChunker(n_chunks=9),
        ],
        ids=["srtree", "round-robin"],
    )
    def test_completion_matches_sequential_scan(self, tiny_collection, chunker):
        index = make_index(tiny_collection, chunker)
        searcher = ChunkSearcher(index)
        rng = np.random.default_rng(17)
        for _ in range(15):
            query = rng.standard_normal(4) * 4.0
            result = searcher.search(query, k=7)
            assert result.completed
            np.testing.assert_array_equal(
                result.neighbor_ids(), exact_knn(tiny_collection, query, 7)
            )

    def test_lower_bound_ranking_also_exact(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=6))
        searcher = ChunkSearcher(index, rank_by=RANK_BY_LOWER_BOUND)
        query = tiny_collection.vectors[3].astype(float)
        result = searcher.search(query, k=5)
        np.testing.assert_array_equal(
            result.neighbor_ids(), exact_knn(tiny_collection, query, 5)
        )

    def test_synthetic_collection_exactness(self, small_synthetic):
        index = make_index(small_synthetic, SRTreeChunker(leaf_capacity=64))
        searcher = ChunkSearcher(index)
        rng = np.random.default_rng(23)
        rows = rng.choice(len(small_synthetic), size=5, replace=False)
        for row in rows:
            query = small_synthetic.vectors[row].astype(float)
            result = searcher.search(query, k=10)
            np.testing.assert_array_equal(
                result.neighbor_ids(), exact_knn(small_synthetic, query, 10)
            )


class TestRanking:
    def test_rank_orders_by_centroid_distance(self, sr_index, tiny_collection):
        searcher = ChunkSearcher(sr_index)
        query = tiny_collection.vectors[0].astype(float)
        order, suffix_min = searcher.rank_chunks(query)
        centroids = sr_index.centroid_matrix()
        dists = np.linalg.norm(centroids[order] - query, axis=1)
        assert np.all(np.diff(dists) >= -1e-12)

    def test_suffix_min_is_min_of_remaining(self, sr_index, tiny_collection):
        searcher = ChunkSearcher(sr_index)
        query = tiny_collection.vectors[30].astype(float)
        order, suffix_min = searcher.rank_chunks(query)
        bounds = np.array(
            [sphere_lower_bound(sr_index.metas[c], query) for c in order]
        )
        for r in range(len(order)):
            assert suffix_min[r] == pytest.approx(bounds[r:].min())

    def test_unknown_rank_rule_rejected(self, sr_index):
        with pytest.raises(ValueError):
            ChunkSearcher(sr_index, rank_by="bogus")

    def test_dimension_mismatch_rejected(self, sr_index):
        searcher = ChunkSearcher(sr_index)
        with pytest.raises(ValueError, match="dims"):
            searcher.search(np.zeros(7), k=3)


class TestStopRules:
    def test_max_chunks_limits_reads(self, sr_index, tiny_collection):
        searcher = ChunkSearcher(sr_index)
        query = tiny_collection.vectors[0].astype(float)
        result = searcher.search(query, k=30, stop_rule=MaxChunks(2))
        assert result.chunks_read <= 2
        assert result.stop_reason in ("max-chunks(2)", "completed")

    def test_time_budget_stops_early(self, sr_index, tiny_collection):
        searcher = ChunkSearcher(sr_index)
        query = tiny_collection.vectors[0].astype(float)
        full = searcher.search(query, k=30)
        tiny_budget = full.trace.start_elapsed_s + 1e-9
        limited = searcher.search(query, k=30, stop_rule=TimeBudget(tiny_budget))
        assert limited.chunks_read <= full.chunks_read
        assert limited.chunks_read == 1  # the first chunk crosses the budget

    def test_each_snapshot_is_its_visit(self, sr_index, tiny_collection):
        """The snapshot a rule sees after visit ``r`` carries that visit's
        trace columns and the completion proof's threshold, field by
        field (the loop builds it positionally)."""

        class Recorder(StopRule):
            def __init__(self):
                self.seen = []

            def check(self, progress):
                self.seen.append(progress)
                return None

        searcher = ChunkSearcher(sr_index, prune=False)
        query = tiny_collection.vectors[3].astype(float)
        rule = Recorder()
        result = searcher.search(query, k=5, stop_rule=rule)
        _, suffix_min = searcher.rank_chunks(query)
        trace = result.trace
        # The proof's break comes before the rule: its visit has no snapshot.
        n_checked = len(rule.seen)
        assert n_checked == trace.chunks_read - (result.stop_reason == "completed")
        assert n_checked >= 2 and np.isfinite(rule.seen[-1].kth_distance)
        for rank, progress in enumerate(rule.seen):
            remaining = suffix_min[rank + 1] if rank + 1 < len(suffix_min) else np.inf
            assert progress == (
                rank + 1,
                trace.elapsed[rank],
                trace.neighbors_found[rank],
                trace.kth_distance[rank],
                remaining,
            )
            assert progress.remaining_lower_bound == remaining
            assert progress.kth_distance == trace.kth_distance[rank]

    def test_completion_beats_stop_rule(self, sr_index, tiny_collection):
        """If the proof fires before the rule, the result is exact."""
        searcher = ChunkSearcher(sr_index)
        query = tiny_collection.vectors[0].astype(float)
        result = searcher.search(query, k=1, stop_rule=MaxChunks(10_000))
        assert result.completed
        assert result.stop_reason == "completed"


class TestHoldsUnderDeadline:
    """The order ``SearchResult.holds_under_deadline`` relies on: at every
    event the completion proof, then the stop rule, then exhaustion."""

    def test_exhausted_scan_is_cut_at_its_final_elapsed(
        self, sr_index, tiny_collection
    ):
        searcher = ChunkSearcher(sr_index)
        query = tiny_collection.vectors[0].astype(float)
        k = len(tiny_collection) + 1  # more than the index holds
        full = searcher.search(query, k=k)
        assert full.stop_reason == "exhausted" and full.completed
        final = full.elapsed_s
        cut = searcher.search(query, k=k, stop_rule=DeadlineBudget(final))
        assert cut.stop_reason == f"deadline({final:g}s)"
        assert not cut.completed
        assert not full.holds_under_deadline(final)
        above = float(np.nextafter(final, np.inf))
        assert full.holds_under_deadline(above)
        again = searcher.search(query, k=k, stop_rule=DeadlineBudget(above))
        assert again.stop_reason == "exhausted" and again.completed
        assert again.neighbors == full.neighbors
        assert again.trace.events == full.trace.events

    def test_completed_scan_survives_a_budget_at_its_final_elapsed(
        self, sr_index, tiny_collection
    ):
        searcher = ChunkSearcher(sr_index)
        query = tiny_collection.vectors[0].astype(float)
        full = searcher.search(query, k=30)
        assert full.stop_reason == "completed" and len(full.trace) >= 2
        final = full.elapsed_s
        again = searcher.search(query, k=30, stop_rule=DeadlineBudget(final))
        assert again.stop_reason == "completed" and again.completed
        assert again.neighbors == full.neighbors
        assert full.holds_under_deadline(final)
        # A budget the event before the last reaches cuts the scan there.
        before_last = full.trace.events[-2].elapsed_s
        assert not full.holds_under_deadline(before_last)
        cut = searcher.search(query, k=30, stop_rule=DeadlineBudget(before_last))
        assert cut.stop_reason == f"deadline({before_last:g}s)"
        assert len(cut.trace) == len(full.trace) - 1

    def test_a_deadline_cut_result_never_holds(self, sr_index, tiny_collection):
        searcher = ChunkSearcher(sr_index)
        query = tiny_collection.vectors[0].astype(float)
        start = searcher.search(query, k=30).trace.start_elapsed_s
        cut = searcher.search(query, k=30, stop_rule=DeadlineBudget(start + 1e-9))
        assert cut.stop_reason.startswith("deadline(")
        assert not cut.holds_under_deadline(1e9)


class TestTraceRecording:
    def test_trace_has_event_per_chunk(self, sr_index, tiny_collection):
        searcher = ChunkSearcher(sr_index)
        query = tiny_collection.vectors[10].astype(float)
        result = searcher.search(query, k=5)
        assert len(result.trace) == result.chunks_read
        ranks = [e.rank for e in result.trace.events]
        assert ranks == list(range(1, result.chunks_read + 1))

    def test_elapsed_monotone(self, sr_index, tiny_collection):
        searcher = ChunkSearcher(sr_index)
        result = searcher.search(tiny_collection.vectors[4].astype(float), k=5)
        times = [result.trace.start_elapsed_s] + [
            e.elapsed_s for e in result.trace.events
        ]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_true_matches_recorded_and_monotone(self, sr_index, tiny_collection):
        query = tiny_collection.vectors[12].astype(float)
        truth = exact_knn(tiny_collection, query, 5)
        searcher = ChunkSearcher(sr_index)
        result = searcher.search(query, k=5, true_neighbor_ids=truth)
        matches = [e.true_matches for e in result.trace.events]
        assert all(m >= 0 for m in matches)
        assert all(a <= b for a, b in zip(matches, matches[1:]))
        assert matches[-1] == 5  # completion finds all true neighbors

    def test_no_ground_truth_means_minus_one(self, sr_index, tiny_collection):
        searcher = ChunkSearcher(sr_index)
        result = searcher.search(tiny_collection.vectors[0].astype(float), k=5)
        assert all(e.true_matches == -1 for e in result.trace.events)


class TestQueryValidation:
    def test_nan_query_rejected(self, sr_index):
        import numpy as np
        import pytest
        from repro.core.search import ChunkSearcher

        searcher = ChunkSearcher(sr_index)
        bad = np.array([np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="NaN or infinite"):
            searcher.search(bad, k=3)

    def test_infinite_query_rejected(self, sr_index):
        import numpy as np
        import pytest
        from repro.core.search import ChunkSearcher

        searcher = ChunkSearcher(sr_index)
        bad = np.array([np.inf, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            searcher.search(bad, k=3)

    def test_nonpositive_k_rejected(self, sr_index):
        import numpy as np
        import pytest
        from repro.core.search import ChunkSearcher

        with pytest.raises(ValueError, match="k must be positive"):
            ChunkSearcher(sr_index).search(np.zeros(4), k=0)


class _CountingStore:
    """Proxy for ``ChunkIndex.store`` that logs every chunk read."""

    def __init__(self, inner):
        self._inner = inner
        self.reads = []

    def __len__(self):
        return len(self._inner)

    def read_chunk(self, chunk_id):
        self.reads.append(chunk_id)
        return self._inner.read_chunk(chunk_id)

    def close(self):
        self._inner.close()


class TestCohortOfOneRetainsNothing:
    """A lone query has no later query to share a chunk's promoted
    payload or distance row with, so neither may outlive the chunk step:
    an exact search otherwise parks the whole scanned collection in
    float64 until it ends."""

    def test_exact_query_peak_memory_and_single_reads(self, tmp_path):
        rng = np.random.default_rng(23)
        vectors = rng.standard_normal((48_000, 24)).astype(np.float32)
        index = make_index(
            from_vectors(vectors),
            SRTreeChunker(leaf_capacity=192),
        )
        index.save(str(tmp_path))
        with ChunkIndex.load(str(tmp_path), 24) as loaded:
            store = _CountingStore(loaded.store)
            searcher = ChunkSearcher(dataclasses.replace(loaded, store=store))
            query = rng.standard_normal(24)
            tracemalloc.start()
            try:
                result = searcher.search(query, k=30)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert result.completed
        scanned = len(result.trace) - result.chunks_pruned
        assert scanned >= 100  # the bound below must mean something
        assert len(store.reads) == scanned
        assert len(set(store.reads)) == scanned
        largest_f64 = int(loaded.descriptor_counts().max()) * 24 * 8
        # Transients of one chunk step (raw bytes, float32 decode, float64
        # payload, distance rows) plus the trace and rank lists; retaining
        # every scanned payload would be ``scanned`` times the chunk size.
        assert peak <= 12 * largest_f64


class TestRectanglesComeFromTheIndex:
    """The pruner's rectangles are index data: opening an index and
    building a searcher read no chunk, a query reads exactly the chunks it
    scans, and how many that is on a fixed fixture is pinned — pruning
    power cannot silently regress."""

    def test_no_read_at_open_and_one_per_scanned_chunk(
        self, clutter_collection, tmp_path, monkeypatch
    ):
        from repro.storage.chunk_file import ChunkFileReader

        make_index(clutter_collection, SRTreeChunker(leaf_capacity=16)).save(
            str(tmp_path)
        )
        reads = []
        real_read = ChunkFileReader.read_chunk

        def counting_read(reader, extent):
            reads.append(extent.page_offset)
            return real_read(reader, extent)

        monkeypatch.setattr(ChunkFileReader, "read_chunk", counting_read)
        rng = np.random.default_rng(31)
        members = clutter_collection.vectors[rng.choice(240, 12, replace=False)]
        near = members.astype(np.float64) + 0.01 * rng.standard_normal((12, 6))
        queries = np.vstack([near, rng.uniform(-4.0, 4.0, size=(12, 6))])
        pinned = {}
        with ChunkIndex.load(str(tmp_path), 6) as loaded:
            assert loaded.codes is not None
            for bounds, index in (
                ("cell codes", loaded),
                ("rectangle", dataclasses.replace(loaded, codes=None)),
            ):
                del reads[:]
                searcher = ChunkSearcher(index)
                assert reads == []
                results = [searcher.search(query, k=5) for query in queries]
                assert all(result.completed for result in results)
                visits = sum(len(result.trace) for result in results)
                pruned = sum(result.chunks_pruned for result in results)
                assert len(reads) == visits - pruned
                pinned[bounds] = (visits, len(reads))
        # A sphere-only pruner reads 162 of these 202 visits.
        assert pinned == {"rectangle": (202, 106), "cell codes": (202, 83)}

    def test_unpruned_searcher_computes_no_rectangle_bound(
        self, sr_index, monkeypatch
    ):
        def forbidden(self, queries):
            raise AssertionError("prune=False must not pay for the bound")

        monkeypatch.setattr(ChunkSearcher, "rectangle_bounds", forbidden)
        result = ChunkSearcher(sr_index, prune=False).search(np.zeros(4), k=3)
        assert result.completed and result.chunks_pruned == 0


class TestCodesSkipReads:
    """The point of the cell codes is the read that does not happen: seen
    through a counting store proxy and a counting CRC, a chunk the codes
    excuse is never read, a scanned chunk is read and verified exactly
    once, and at the paper's operating point the codes are hardly ever
    asked."""

    @pytest.fixture(scope="class")
    def golden_directory(self, tmp_path_factory):
        """The seeded 20k collection of ``tests/srtree/test_static_build.py::
        golden_vectors`` in leaves of 64, saved."""
        rng = np.random.default_rng(2005)
        n = 20_000
        centers = rng.uniform(-4.0, 4.0, size=(32, 24))
        vectors = centers[rng.integers(32, size=n)] + 0.3 * rng.standard_normal((n, 24))
        vectors[:, :4] = np.round(vectors[:, :4] * 8.0) / 8.0
        vectors[n // 2 : n // 2 + n // 10] = vectors[: n // 10]
        collection = from_vectors(vectors.astype(np.float32))
        directory = tmp_path_factory.mktemp("golden")
        make_index(collection, SRTreeChunker(leaf_capacity=64)).save(str(directory))
        members = collection.vectors[rng.choice(n, 32, replace=False)].astype(np.float64)
        queries = np.vstack(
            [
                members + 0.05 * rng.standard_normal((32, 24)),
                rng.uniform(-4.0, 4.0, size=(32, 24)),
            ]
        )
        return directory, queries

    class CountingStore:
        def __init__(self, inner):
            self.inner = inner
            self.reads = []

        def __len__(self):
            return len(self.inner)

        def read_chunk(self, chunk_id):
            self.reads.append(chunk_id)
            return self.inner.read_chunk(chunk_id)

        def close(self):
            pass

    def test_excused_chunks_are_not_read_and_scanned_ones_once(
        self, golden_directory, monkeypatch
    ):
        import types
        import zlib

        from repro.storage import chunk_file

        directory, queries = golden_directory
        verified = []

        def counting_crc(payload):
            verified.append(len(payload))
            return zlib.crc32(payload)

        monkeypatch.setattr(chunk_file, "zlib", types.SimpleNamespace(crc32=counting_crc))
        consulted = []
        real_bound = ChunkSearcher.code_bound

        def spying_bound(searcher, query, chunk_id):
            consulted.append(chunk_id)
            return real_bound(searcher, query, chunk_id)

        monkeypatch.setattr(ChunkSearcher, "code_bound", spying_bound)
        excused = 0
        with ChunkIndex.load(str(directory), 24) as loaded:
            store = self.CountingStore(loaded.store)
            searcher = ChunkSearcher(dataclasses.replace(loaded, store=store))
            for query in queries[::4]:
                del store.reads[:], verified[:], consulted[:]
                result = searcher.search(query, k=10)
                assert result.completed
                scanned = len(result.trace) - result.chunks_pruned
                assert len(store.reads) == len(set(store.reads)) == scanned
                assert len(verified) == scanned
                assert len(consulted) == len(set(consulted))
                by_codes = set(consulted) - set(store.reads)
                assert len(by_codes) <= result.chunks_pruned
                excused += len(by_codes)
        assert excused > 0

    @staticmethod
    def consults_per_query(directory, queries, monkeypatch):
        consults = []
        real_bound = ChunkSearcher.code_bound

        def spying_bound(searcher, query, chunk_id):
            consults.append(chunk_id)
            return real_bound(searcher, query, chunk_id)

        monkeypatch.setattr(ChunkSearcher, "code_bound", spying_bound)
        with ChunkIndex.load(str(directory), 24) as loaded:
            searcher = ChunkSearcher(loaded)
            for query in queries:
                result = searcher.search(query, k=30, stop_rule=MaxChunks(16))
                assert len(result.trace) == 16
        return len(consults) / len(queries)

    def test_at_sixteen_chunks_the_codes_are_hardly_asked(self, tmp_path, monkeypatch):
        """The benchmark's shape in small — 24-d patterns, 10% clutter,
        leaves of 400, dataset and space queries 1:1: under one consult per
        query at the paper's operating point (0.8 on the benchmark's own
        500k collection; without the two gates it is 12.7)."""
        rng = np.random.default_rng(41)
        centers = rng.uniform(0.0, 1.0, size=(40, 24))
        patterns = centers[rng.integers(40, size=21_600)] + 0.02 * rng.standard_normal(
            (21_600, 24)
        )
        vectors = np.vstack([patterns, rng.uniform(0.0, 1.0, size=(2_400, 24))])
        collection = from_vectors(
            vectors[rng.permutation(24_000)].astype(np.float32)
        )
        make_index(collection, SRTreeChunker(leaf_capacity=400)).save(str(tmp_path))
        members = collection.vectors[rng.choice(24_000, 32, replace=False)]
        queries = np.vstack(
            [
                members.astype(np.float64) + 0.005 * rng.standard_normal((32, 24)),
                rng.uniform(0.0, 1.0, size=(32, 24)),
            ]
        )
        assert self.consults_per_query(tmp_path, queries, monkeypatch) < 1.0

    def test_the_gates_hold_where_the_codes_help_least(
        self, golden_directory, monkeypatch
    ):
        """The golden collection is the codes' worst case — no clutter, so
        a chunk's rectangle is already tight, and leaves of 64, whose scan
        is cheaper than a consult: still under one visit in five pays one
        (2.5 per query; 7.6 with the ratio gate alone)."""
        directory, queries = golden_directory
        assert self.consults_per_query(directory, queries, monkeypatch) < 0.2 * 16
