"""Tests for the related-work chunkers: TSVQ and CF (Clindex)."""

import numpy as np
import pytest

from repro.chunking.clindex import ClindexChunker
from repro.chunking.random_chunker import RandomChunker
from repro.chunking.tsvq import TsvqChunker
from repro.core.dataset import DescriptorCollection
from descriptors import from_vectors, radii


class TestTsvq:
    def test_validation(self):
        with pytest.raises(ValueError):
            TsvqChunker(max_chunk_size=0)

    def test_size_bound_respected(self, small_synthetic):
        result = TsvqChunker(max_chunk_size=100, seed=1).form_chunks(
            small_synthetic
        )
        result.validate()
        assert result.chunk_set.sizes().max() <= 100

    def test_partition(self, tiny_collection):
        result = TsvqChunker(max_chunk_size=15).form_chunks(tiny_collection)
        assert result.chunk_set.is_partition()

    def test_finds_natural_clusters(self, tiny_collection):
        """Three well-separated 20-point clusters with a bound of 25
        should come out as exactly the three clusters."""
        result = TsvqChunker(max_chunk_size=25, seed=0).form_chunks(
            tiny_collection
        )
        assert result.n_chunks == 3
        for chunk in result.chunk_set:
            clusters = set(int(r) // 20 for r in chunk.member_rows)
            assert len(clusters) == 1

    def test_duplicate_points_split(self):
        """Degenerate data (all identical) must still terminate via the
        median fallback split."""
        col = from_vectors(np.ones((40, 3)))
        result = TsvqChunker(max_chunk_size=8, seed=0).form_chunks(col)
        result.validate()
        assert result.chunk_set.sizes().max() <= 8

    def test_locality_beats_random(self, small_synthetic):
        tsvq = TsvqChunker(max_chunk_size=64, seed=0).form_chunks(small_synthetic)
        rand = RandomChunker(n_chunks=tsvq.n_chunks, seed=0).form_chunks(
            small_synthetic
        )
        assert radii(tsvq.chunk_set).mean() < radii(rand.chunk_set).mean()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TsvqChunker(max_chunk_size=4).form_chunks(
                DescriptorCollection.empty(2)
            )


class TestClindex:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClindexChunker(max_chunk_size=0)

    def test_partition(self, tiny_collection):
        result = ClindexChunker(max_chunk_size=30).form_chunks(tiny_collection)
        result.validate()
        assert result.chunk_set.is_partition()

    def test_size_cap_soft(self, small_synthetic):
        """CF stops absorbing once the cap is reached mid-cell, so a chunk
        may overshoot by at most one cell's population."""
        cap = 120
        result = ClindexChunker(max_chunk_size=cap).form_chunks(small_synthetic)
        build = result.build_info
        assert build["occupied_cells"] >= result.n_chunks

    def test_dense_cells_processed_first(self, tiny_collection):
        """The largest chunk contains the densest cell's descriptors."""
        result = ClindexChunker(max_chunk_size=25).form_chunks(tiny_collection)
        sizes = result.chunk_set.sizes()
        assert sizes.max() >= sizes.mean()

    def test_chunks_are_connected_cell_unions(self, small_synthetic):
        """The structural fact behind the paper's critique: every CF chunk
        is a union of grid cells connected under flip-one-dimension
        adjacency — an arbitrary shape, not a sphere."""
        chunker = ClindexChunker(max_chunk_size=150)
        signatures = chunker._cell_signatures(small_synthetic)
        result = chunker.form_chunks(small_synthetic)
        for chunk in result.chunk_set:
            cells = {tuple(signatures[int(r)]) for r in chunk.member_rows}
            if len(cells) == 1:
                continue
            # BFS over Hamming-1 adjacency must reach every cell.
            cells = set(cells)
            start = next(iter(cells))
            seen = {start}
            frontier = [start]
            while frontier:
                cell = frontier.pop()
                for dim in range(len(cell)):
                    flipped = list(cell)
                    flipped[dim] ^= 1
                    flipped = tuple(flipped)
                    if flipped in cells and flipped not in seen:
                        seen.add(flipped)
                        frontier.append(flipped)
            assert seen == cells

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClindexChunker(max_chunk_size=4).form_chunks(
                DescriptorCollection.empty(2)
            )

    def test_searchable(self, tiny_collection):
        from repro.core.chunk_index import build_chunk_index
        from repro.core.ground_truth import exact_knn
        from repro.core.search import ChunkSearcher

        result = ClindexChunker(max_chunk_size=20).form_chunks(tiny_collection)
        index = build_chunk_index(result.retained, result.chunk_set)
        query = tiny_collection.vectors[4].astype(float)
        got = ChunkSearcher(index).search(query, k=6)
        np.testing.assert_array_equal(
            got.neighbor_ids(), exact_knn(tiny_collection, query, 6)
        )
