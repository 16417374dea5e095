"""Unit tests for the coarse centroid router.

The router's contract is *bit-exactness*: the lazily expanded stream must
emit chunks in precisely the flat ``lexsort((ids, key))`` order, and its
certified remaining lower bound must equal the flat ranking's suffix
minimum float for float — while actually expanding fewer groups than a
full scan touches centroids.
"""

import math

import numpy as np
import pytest

from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk_index import build_chunk_index
from repro.core.distance import squared_distances
from repro.core.routing import CentroidRouter
from repro.core.search import (
    RANK_BY_CENTROID,
    RANK_BY_LOWER_BOUND,
    ChunkSearcher,
)

RANK_MODES = [RANK_BY_CENTROID, RANK_BY_LOWER_BOUND]


def make_index(collection, leaf_capacity=7):
    result = SRTreeChunker(leaf_capacity=leaf_capacity).form_chunks(collection)
    return build_chunk_index(result.retained, result.chunk_set)


def make_queries(n, dims, seed=97):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dims)) * 4.0


def flat_ranking(index, query, rank_by):
    """``(order, suffix_min, ranked_bounds)`` of the flat direct-form
    ranking — the floats the router contracts to reproduce bit for bit
    (the searcher's own flat ranking uses the expanded-form kernel, which
    rounds the same distances differently in the last ulp)."""
    centroid_d = np.sqrt(squared_distances(query, index.centroid_matrix()))
    bounds = np.maximum(0.0, centroid_d - index.radius_vector())
    key = centroid_d if rank_by == RANK_BY_CENTROID else bounds
    order = np.lexsort((np.arange(index.n_chunks), key))
    ranked_bounds = bounds[order]
    suffix_min = np.minimum.accumulate(ranked_bounds[::-1])[::-1]
    return order, suffix_min, ranked_bounds


def drain(stream):
    """Exhaust a stream, returning (chunk ids, lower bounds) in order."""
    ids, lbs = [], []
    while True:
        emitted = stream.next()
        if emitted is None:
            return ids, lbs
        ids.append(emitted[0])
        lbs.append(emitted[1])


class TestBuild:
    def test_group_count_defaults_to_sqrt(self, tiny_collection):
        index = make_index(tiny_collection)
        router = CentroidRouter.from_index(index)
        assert router.n_groups == math.ceil(math.sqrt(index.n_chunks))
        assert router.n_chunks == index.n_chunks

    def test_groups_partition_the_chunks(self, tiny_collection):
        index = make_index(tiny_collection)
        router = CentroidRouter.from_index(index)
        all_ids = np.concatenate(router.member_ids)
        assert sorted(all_ids.tolist()) == list(range(index.n_chunks))

    def test_build_is_deterministic(self, tiny_collection):
        index = make_index(tiny_collection)
        a = CentroidRouter.from_index(index, seed=11)
        b = CentroidRouter.from_index(index, seed=11)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.key_slack, b.key_slack)
        np.testing.assert_array_equal(a.lb_slack, b.lb_slack)
        for ids_a, ids_b in zip(a.member_ids, b.member_ids):
            np.testing.assert_array_equal(ids_a, ids_b)

    def test_single_group_degenerate_case(self, tiny_collection):
        """A one-chunk index routes through ``ceil(sqrt(1)) = 1`` group,
        whose stream is that chunk."""
        index = make_index(tiny_collection, leaf_capacity=len(tiny_collection))
        assert index.n_chunks == 1
        router = CentroidRouter.from_index(index)
        assert router.n_groups == 1
        query = make_queries(1, tiny_collection.dimensions)[0]
        order, _ = ChunkSearcher(index).rank_chunks(query)
        ids, _ = drain(router.stream(query))
        assert ids == order.tolist() == [0]

    def test_rejects_bad_centroid_shape(self):
        with pytest.raises(ValueError, match="centroid matrix"):
            CentroidRouter.build(np.zeros((0, 4)), np.zeros(0))
        with pytest.raises(ValueError, match="centroid matrix"):
            CentroidRouter.build(np.zeros(4), np.zeros(1))

    def test_rejects_mismatched_radii(self):
        with pytest.raises(ValueError, match="radii"):
            CentroidRouter.build(np.zeros((3, 4)), np.zeros(2))

    def test_rejects_unknown_rank_rule(self, tiny_collection):
        router = CentroidRouter.from_index(make_index(tiny_collection))
        with pytest.raises(ValueError, match="unknown ranking rule"):
            router.stream(np.zeros(tiny_collection.dimensions), rank_by="nope")


class TestStreamExactness:
    @pytest.mark.parametrize("rank_by", RANK_MODES)
    def test_emission_order_matches_flat_ranking(self, tiny_collection, rank_by):
        index = make_index(tiny_collection)
        router = CentroidRouter.from_index(index)
        searcher = ChunkSearcher(index, rank_by=rank_by)
        for query in make_queries(20, tiny_collection.dimensions):
            order, _ = searcher.rank_chunks(query)
            ids, _ = drain(router.stream(query, rank_by=rank_by))
            assert ids == order.tolist()

    @pytest.mark.parametrize("rank_by", RANK_MODES)
    def test_lower_bounds_bit_equal_to_flat(self, tiny_collection, rank_by):
        index = make_index(tiny_collection)
        router = CentroidRouter.from_index(index)
        for query in make_queries(20, tiny_collection.dimensions):
            _, _, ranked_bounds = flat_ranking(index, query, rank_by)
            _, lbs = drain(router.stream(query, rank_by=rank_by))
            # == on purpose: the stream computes the very same floats.
            assert lbs == ranked_bounds.tolist()

    @pytest.mark.parametrize("rank_by", RANK_MODES)
    def test_certified_lb_equals_suffix_min(self, tiny_collection, rank_by):
        index = make_index(tiny_collection)
        router = CentroidRouter.from_index(index)
        for query in make_queries(10, tiny_collection.dimensions):
            _, suffix_min, _ = flat_ranking(index, query, rank_by)
            stream = router.stream(query, rank_by=rank_by)
            # Before any emission the certificate is the global minimum;
            # after emitting rank r it is suffix_min[r + 1]; inf at the end.
            assert stream.exact_remaining_lb() == suffix_min[0]
            for rank in range(index.n_chunks):
                assert stream.next() is not None
                want = (
                    suffix_min[rank + 1]
                    if rank + 1 < index.n_chunks
                    else math.inf
                )
                assert stream.exact_remaining_lb() == want
            assert stream.exhausted
            assert stream.next() is None

    def test_lazy_expansion_saves_work(self, small_synthetic):
        """The point of the router: a far-from-everything query that stops
        early must not expand every group."""
        result = SRTreeChunker(leaf_capacity=16).form_chunks(small_synthetic)
        index = build_chunk_index(result.retained, result.chunk_set)
        router = CentroidRouter.from_index(index)
        assert router.n_groups >= 4
        query = make_queries(1, small_synthetic.dimensions, seed=1)[0]
        stream = router.stream(query)
        for _ in range(3):  # probe only the head of the ranking
            stream.next()
        assert stream.groups_expanded < router.n_groups

    def test_streams_are_independent(self, tiny_collection):
        index = make_index(tiny_collection)
        router = CentroidRouter.from_index(index)
        queries = make_queries(2, tiny_collection.dimensions)
        stream_a = router.stream(queries[0])
        stream_b = router.stream(queries[1])
        a_first = stream_a.next()
        ids_b, _ = drain(stream_b)
        order_b, _ = ChunkSearcher(index).rank_chunks(queries[1])
        assert ids_b == order_b.tolist()
        order_a, _ = ChunkSearcher(index).rank_chunks(queries[0])
        assert a_first[0] == order_a[0]
