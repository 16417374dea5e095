"""Chunk ranking under many tied keys.

``ChunkSearcher`` ranks each query's chunks with one stable ``argsort`` of
the key; the reference is the ``lexsort`` over (key, chunk id) it replaced.
Both sort ascending by key with the chunk id breaking ties, so the orders
must be equal — which only ties can tell apart.  Every chunk here holds
copies of one point of a small integer grid and every query is a grid
point, so keys repeat across chunks and every distance is exact.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptors import from_vectors
from repro.chunking.round_robin import RoundRobinChunker
from repro.core.chunk_index import build_chunk_index
from repro.core.distance import pairwise_squared_distances
from repro.core.search import RANK_BY_CENTROID, RANK_BY_LOWER_BOUND, ChunkSearcher

GRID = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def lexsort_ranking(index, queries, rank_by):
    """Chunk ids per query by ascending key, ties by chunk id."""
    centroid_d = np.sqrt(pairwise_squared_distances(queries, index.centroid_matrix()))
    key = (
        centroid_d
        if rank_by == RANK_BY_CENTROID
        else np.maximum(0.0, centroid_d - index.radius_vector())
    )
    columns = np.broadcast_to(np.arange(key.shape[1]), key.shape)
    return np.lexsort((columns, key), axis=-1), key


@given(
    st.lists(GRID, min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=40),
    st.lists(GRID, min_size=1, max_size=5),
    st.sampled_from([RANK_BY_CENTROID, RANK_BY_LOWER_BOUND]),
)
@settings(max_examples=2 * settings.default.max_examples, deadline=None)
def test_tied_keys_rank_like_lexsort(points, chunk_points, query_points, rank_by):
    # Chunk c holds two copies of points[chunk_points[c]]: row r of the
    # collection belongs to chunk r % n_chunks under round robin.
    n_chunks = len(chunk_points)
    rows = [
        points[chunk_points[r % n_chunks] % len(points)] for r in range(2 * n_chunks)
    ]
    collection = from_vectors(np.array(rows, dtype=np.float32))
    result = RoundRobinChunker(n_chunks=n_chunks).form_chunks(collection)
    index = build_chunk_index(result.retained, result.chunk_set)
    queries = np.array(query_points, dtype=np.float64)

    orders, _ = ChunkSearcher(index, rank_by=rank_by).rank_chunks_batch(queries)

    want, key = lexsort_ranking(index, queries, rank_by)
    np.testing.assert_array_equal(orders, want)
    # Each row is non-decreasing in key; equal keys appear in id order.
    ranked = np.take_along_axis(key, orders, axis=1)
    assert np.all(np.diff(ranked, axis=1) >= 0)


def test_all_keys_tied_rank_by_chunk_id():
    collection = from_vectors(np.zeros((12, 2), dtype=np.float32))
    result = RoundRobinChunker(n_chunks=6).form_chunks(collection)
    index = build_chunk_index(result.retained, result.chunk_set)
    orders, _ = ChunkSearcher(index).rank_chunks_batch(np.ones((3, 2)))
    np.testing.assert_array_equal(orders, np.tile(np.arange(6), (3, 1)))
