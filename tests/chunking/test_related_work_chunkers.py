"""Tests for the related-work TSVQ chunker."""

import numpy as np
import pytest

from repro.chunking.round_robin import RoundRobinChunker
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
        rr = RoundRobinChunker(n_chunks=tsvq.n_chunks).form_chunks(small_synthetic)
        assert radii(tsvq.chunk_set).mean() < radii(rr.chunk_set).mean()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TsvqChunker(max_chunk_size=4).form_chunks(
                DescriptorCollection.empty(2)
            )
