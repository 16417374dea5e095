"""Cohort equivalence: sharing host work across a cohort must be an
optimization, never a semantic change.

The property under test: for every chunker in the zoo and every stop
rule, a cohort of N (``ChunkSearcher.search_batch``) returns per-query
neighbor ids, distances, stop reasons, trace lengths, and simulated
elapsed times identical to N cohorts of one (``ChunkSearcher.search``,
one query at a time) — at any worker count, and with or without
ground-truth match counting — and replays against the independent
references (``replay_oracle.ReplayOracle``).
"""

import dataclasses

import numpy as np
import pytest

from repro.chunking.bag import BagClusterer, estimate_mpi
from repro.chunking.round_robin import RoundRobinChunker
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk_index import build_chunk_index
from repro.core.ground_truth import exact_knn
from repro.core.search import RANK_BY_LOWER_BOUND, BatchSearchResult, ChunkSearcher
from repro.core.stop_rules import MaxChunks, TimeBudget
from repro.simio.chunk_cache import LruChunkCache
from repro.simio.calibration import PAPER_2005_COST_MODEL
from replay_oracle import ReplayOracle


def make_index(collection, chunker):
    result = chunker.form_chunks(collection)
    return build_chunk_index(result.retained, result.chunk_set)


def make_queries(n, dims, seed=97):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dims)) * 4.0


CHUNKER_FACTORIES = {
    "srtree": lambda collection: SRTreeChunker(leaf_capacity=7),
    "bag": lambda collection: BagClusterer(
        mpi=estimate_mpi(collection, seed=3),
        target_clusters=5,
    ),
    "round-robin": lambda collection: RoundRobinChunker(n_chunks=9),
}


def assert_equivalent(batch_result, sequential_results, replay, queries, truth=None):
    """Cohort and per-query outcomes must agree on every observable, and
    replay against the independent references (``truth``: the per-query
    ground truth the searches were given).

    Ids, stop reasons, trace lengths, and simulated times are compared
    exactly; distances to within one ulp (the BLAS kernel may round a
    one-row and an N-row product differently in the last bit).
    """
    assert len(batch_result) == len(sequential_results) == len(queries)
    for i, (got, want) in enumerate(zip(batch_result, sequential_results)):
        replay.check(
            queries[i], got, query_index=i, truth=None if truth is None else truth[i]
        )
        np.testing.assert_array_equal(got.neighbor_ids(), want.neighbor_ids())
        np.testing.assert_allclose(
            [n.distance for n in got.neighbors],
            [n.distance for n in want.neighbors],
            rtol=1e-12,
        )
        assert got.stop_reason == want.stop_reason
        assert got.completed == want.completed
        assert len(got.trace) == len(want.trace)
        assert got.elapsed_s == want.elapsed_s
        assert got.trace.start_elapsed_s == want.trace.start_elapsed_s
        for got_event, want_event in zip(got.trace.events, want.trace.events):
            assert got_event.chunk_id == want_event.chunk_id
            assert got_event.rank == want_event.rank
            assert got_event.elapsed_s == want_event.elapsed_s
            assert got_event.n_descriptors == want_event.n_descriptors
            assert got_event.neighbors_found == want_event.neighbors_found
            assert got_event.true_matches == want_event.true_matches
            assert got_event.kth_distance == pytest.approx(
                want_event.kth_distance, rel=1e-12
            )


class TestEquivalence:
    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    @pytest.mark.parametrize(
        "stop_rule_factory",
        [lambda: None, lambda: MaxChunks(3), lambda: TimeBudget(0.08)],
        ids=["exact", "max-chunks", "time-budget"],
    )
    def test_batch_matches_sequential(
        self, tiny_collection, chunker_name, stop_rule_factory
    ):
        chunker = CHUNKER_FACTORIES[chunker_name](tiny_collection)
        index = make_index(tiny_collection, chunker)
        queries = make_queries(12, tiny_collection.dimensions)

        sequential = ChunkSearcher(index)
        wanted = [
            sequential.search(q, k=7, stop_rule=stop_rule_factory())
            for q in queries
        ]
        batch = ChunkSearcher(index).search_batch(
            queries, k=7, stop_rule=stop_rule_factory()
        )
        assert_equivalent(batch, wanted, ReplayOracle(index, k=7), queries)

    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_ground_truth_columns_match(self, tiny_collection, chunker_name):
        chunker = CHUNKER_FACTORIES[chunker_name](tiny_collection)
        index = make_index(tiny_collection, chunker)
        queries = make_queries(6, tiny_collection.dimensions, seed=41)
        truth = [exact_knn(tiny_collection, q, 5) for q in queries]

        sequential = ChunkSearcher(index)
        wanted = [
            sequential.search(q, k=5, true_neighbor_ids=t)
            for q, t in zip(queries, truth)
        ]
        batch = ChunkSearcher(index).search_batch(
            queries, k=5, true_neighbor_ids=truth
        )
        assert_equivalent(batch, wanted, ReplayOracle(index, k=5), queries, truth)
        for result in batch:
            assert all(e.true_matches >= 0 for e in result.trace.events)

    def test_partial_ground_truth_lists(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))
        queries = make_queries(4, tiny_collection.dimensions, seed=8)
        truth = [
            exact_knn(tiny_collection, queries[0], 5),
            None,
            exact_knn(tiny_collection, queries[2], 5),
            None,
        ]
        batch = ChunkSearcher(index).search_batch(
            queries, k=5, true_neighbor_ids=truth
        )
        for i, result in enumerate(batch):
            expected = -1 if truth[i] is None else 0
            assert all(
                (e.true_matches >= 0) == (expected >= 0)
                for e in result.trace.events
            )

    def test_lower_bound_ranking_equivalent(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=6))
        queries = make_queries(8, tiny_collection.dimensions, seed=13)
        wanted = [
            ChunkSearcher(index, rank_by=RANK_BY_LOWER_BOUND).search(q, k=5)
            for q in queries
        ]
        batch = ChunkSearcher(index, rank_by=RANK_BY_LOWER_BOUND)
        replay = ReplayOracle(index, k=5, rank_by=RANK_BY_LOWER_BOUND)
        assert_equivalent(batch.search_batch(queries, k=5), wanted, replay, queries)

    def test_shared_chunk_cache_falls_back_to_sequential_order(
        self, tiny_collection
    ):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))
        queries = make_queries(10, tiny_collection.dimensions, seed=29)
        # Two identical models, each with its own fresh cache: the batch
        # cohort must replay the per-query loop's exact chunk-touch order.
        page = PAPER_2005_COST_MODEL.disk.page_bytes
        model_a, model_b, model_c = (
            dataclasses.replace(
                PAPER_2005_COST_MODEL,
                chunk_cache=LruChunkCache(capacity_bytes=3 * page),
            )
            for _ in range(3)
        )
        sequential = ChunkSearcher(index, cost_model=model_a)
        wanted = [sequential.search(q, k=5) for q in queries]
        batch = ChunkSearcher(index, cost_model=model_b).search_batch(queries, k=5)
        # The third equal model: the replay charges through its own cache,
        # in query order, and must land on the same timestamps.
        replay = ReplayOracle(index, k=5, cost_model=model_c)
        assert_equivalent(batch, wanted, replay, queries)
        assert model_b.chunk_cache.hits == model_a.chunk_cache.hits > 0
        assert model_b.chunk_cache.misses == model_a.chunk_cache.misses
        assert model_b.chunk_cache.evictions == model_a.chunk_cache.evictions > 0


class TestBatchRanking:
    def test_rank_rows_match_sequential(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=7))
        queries = make_queries(9, tiny_collection.dimensions, seed=3)
        sequential = ChunkSearcher(index)
        batch = ChunkSearcher(index)
        orders, suffix_mins = batch.rank_chunks_batch(queries)
        for i, query in enumerate(queries):
            want_order, want_suffix = sequential.rank_chunks(query)
            np.testing.assert_array_equal(orders[i], want_order)
            np.testing.assert_allclose(
                suffix_mins[i], want_suffix, rtol=0, atol=1e-9
            )


class TestBatchSearchResult:
    def test_aggregate_views(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))
        queries = make_queries(5, tiny_collection.dimensions, seed=19)
        batch = ChunkSearcher(index).search_batch(queries, k=4)
        assert len(batch) == 5
        assert batch.elapsed_s().shape == (5,)
        assert batch.total_chunks_read == sum(
            r.chunks_read for r in batch.results
        )
        assert batch.mean_elapsed_s == pytest.approx(
            float(batch.elapsed_s().mean())
        )
        assert len(batch.traces()) == 5
        assert batch[0] is batch.results[0]

    def test_empty_batch(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))
        dims = tiny_collection.dimensions
        batch = ChunkSearcher(index).search_batch(
            np.empty((0, dims)), k=4
        )
        assert len(batch) == 0
        assert batch.mean_elapsed_s == 0.0

    def test_single_vector_promoted(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))
        query = tiny_collection.vectors[0].astype(float)
        batch = ChunkSearcher(index).search_batch(query, k=3)
        assert len(batch) == 1
        want = ChunkSearcher(index).search(query, k=3)
        assert_equivalent(batch, [want], ReplayOracle(index, k=3), [query])


class TestValidation:
    def test_dimension_mismatch_rejected(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))
        with pytest.raises(ValueError, match="dims"):
            ChunkSearcher(index).search_batch(np.zeros((2, 7)), k=3)

    def test_nan_rejected(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))
        bad = np.zeros((2, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            ChunkSearcher(index).search_batch(bad, k=3)

    def test_nonpositive_k_rejected(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))
        with pytest.raises(ValueError, match="k must be positive"):
            ChunkSearcher(index).search_batch(np.zeros((1, 4)), k=0)

    def test_truth_length_mismatch_rejected(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))
        with pytest.raises(ValueError, match="ground-truth"):
            ChunkSearcher(index).search_batch(
                np.zeros((3, 4)), k=2, true_neighbor_ids=[None]
            )

    def test_bad_rank_rule_rejected(self, tiny_collection):
        index = make_index(tiny_collection, SRTreeChunker(leaf_capacity=8))
        with pytest.raises(ValueError, match="ranking"):
            ChunkSearcher(index, rank_by="bogus")
