"""Searching through the simulated cache (the model itself is tested in
``test_chunk_cache.py``)."""

import dataclasses

import numpy as np

from repro.simio.chunk_cache import LruChunkCache


class TestCachedSearch:
    def test_repeated_query_faster_with_cache(self, tiny_collection):
        """Re-running the same query against a cached index is cheaper —
        the buffering effect the paper's round-robin protocol avoids."""
        from repro.chunking.srtree_chunker import SRTreeChunker
        from repro.core.chunk_index import build_chunk_index
        from repro.core.search import ChunkSearcher
        from repro.simio.calibration import PAPER_2005_COST_MODEL

        chunking = SRTreeChunker(leaf_capacity=8).form_chunks(tiny_collection)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        cache = LruChunkCache(capacity_bytes=1 << 30)
        cached_model = dataclasses.replace(PAPER_2005_COST_MODEL, chunk_cache=cache)
        searcher = ChunkSearcher(index, cost_model=cached_model)
        query = tiny_collection.vectors[0].astype(float)

        cold = searcher.search(query, k=5)
        warm = searcher.search(query, k=5)
        assert warm.elapsed_s < cold.elapsed_s
        np.testing.assert_array_equal(cold.neighbor_ids(), warm.neighbor_ids())
        assert cache.hit_rate > 0.0

    def test_no_cache_is_deterministic(self, tiny_collection):
        from repro.chunking.srtree_chunker import SRTreeChunker
        from repro.core.chunk_index import build_chunk_index
        from repro.core.search import ChunkSearcher

        chunking = SRTreeChunker(leaf_capacity=8).form_chunks(tiny_collection)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        searcher = ChunkSearcher(index)
        query = tiny_collection.vectors[0].astype(float)
        assert (
            searcher.search(query, k=5).elapsed_s
            == searcher.search(query, k=5).elapsed_s
        )
