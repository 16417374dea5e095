"""Tests for the SR-tree, round-robin, random and hybrid chunkers."""

import numpy as np
import pytest

from repro.chunking.hybrid import MAX_SIZE_FACTOR, HybridChunker
from repro.chunking.round_robin import RoundRobinChunker
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk import Chunk
from repro.core.dataset import DescriptorCollection
from descriptors import from_vectors, radii


class TestSRTreeChunker:
    def test_uniform_sizes(self, tiny_collection):
        result = SRTreeChunker(leaf_capacity=16).form_chunks(tiny_collection)
        result.validate()
        sizes = result.chunk_set.sizes()
        assert sizes.max() <= 16
        assert (sizes != 16).sum() <= 1  # one remainder chunk at most

    def test_no_outliers(self, tiny_collection):
        result = SRTreeChunker(leaf_capacity=10).form_chunks(tiny_collection)
        assert result.n_outliers == 0
        assert result.retained is tiny_collection

    def test_partition(self, tiny_collection):
        result = SRTreeChunker(leaf_capacity=7).form_chunks(tiny_collection)
        assert result.chunk_set.is_partition()

    def test_spatial_locality_beats_round_robin(self, tiny_collection):
        """SR chunks should have much smaller radii than round-robin
        chunks of the same size — the whole point of the strategy."""
        sr = SRTreeChunker(leaf_capacity=20).form_chunks(tiny_collection)
        rr = RoundRobinChunker(n_chunks=3).form_chunks(tiny_collection)
        assert radii(sr.chunk_set).mean() < 0.5 * radii(rr.chunk_set).mean()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SRTreeChunker(leaf_capacity=0)

    def test_empty_collection(self):
        with pytest.raises(ValueError):
            SRTreeChunker(leaf_capacity=4).form_chunks(
                DescriptorCollection.empty(3)
            )

    def test_build_info_recorded(self, tiny_collection):
        result = SRTreeChunker(leaf_capacity=8).form_chunks(tiny_collection)
        assert "build_seconds" in result.build_info
        assert result.build_info["leaf_capacity"] == 8.0

    def test_summaries_equal_a_gather_of_the_member_rows(self, small_synthetic):
        """The chunker summarises slices of the build's ordered matrix;
        the numbers are those of ``Chunk.from_rows``, bit for bit."""
        result = SRTreeChunker(leaf_capacity=50).form_chunks(small_synthetic)
        assert len(result.chunk_set) > 20
        for chunk in result.chunk_set:
            assert chunk.member_rows.dtype == np.intp
            gathered = Chunk.from_rows(small_synthetic, chunk.member_rows)
            assert chunk.centroid.tobytes() == gathered.centroid.tobytes()
            assert chunk.radius == gathered.radius

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("capacity", [20, 500])  # split root / single leaf
    def test_non_finite_descriptor_refused(self, poison, capacity):
        vectors = np.random.default_rng(1).standard_normal((200, 4)).astype(np.float32)
        vectors[17, 2] = poison
        collection = from_vectors(vectors)
        with pytest.raises(ValueError, match="non-finite"):
            SRTreeChunker(capacity).form_chunks(collection)

    def test_huge_finite_coordinates_build(self):
        vectors = np.random.default_rng(2).standard_normal((200, 4)).astype(np.float32)
        vectors[::3] *= np.float32(1e18)
        result = SRTreeChunker(20).form_chunks(from_vectors(vectors))
        result.validate()
        assert np.isfinite(radii(result.chunk_set)).all()


class TestRoundRobin:
    def test_uniform_assignment(self, tiny_collection):
        result = RoundRobinChunker(n_chunks=6).form_chunks(tiny_collection)
        result.validate()
        sizes = result.chunk_set.sizes()
        assert sizes.max() - sizes.min() <= 1
        assert len(result.chunk_set) == 6

    def test_descriptor_i_in_chunk_i_mod_n(self, tiny_collection):
        result = RoundRobinChunker(n_chunks=4).form_chunks(tiny_collection)
        for c, chunk in enumerate(result.chunk_set):
            assert all(int(r) % 4 == c for r in chunk.member_rows)

    def test_more_chunks_than_descriptors(self):
        col = from_vectors(np.ones((3, 2)))
        result = RoundRobinChunker(n_chunks=10).form_chunks(col)
        assert len(result.chunk_set) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            RoundRobinChunker(n_chunks=0)


class TestHybridChunker:
    def test_size_cap_enforced(self, small_synthetic):
        chunker = HybridChunker(target_chunk_size=100)
        result = chunker.form_chunks(small_synthetic)
        result.validate()
        cap = int(np.ceil(100 * MAX_SIZE_FACTOR))
        assert result.chunk_set.sizes().max() <= cap

    def test_partition(self, small_synthetic):
        result = HybridChunker(target_chunk_size=150).form_chunks(small_synthetic)
        assert result.chunk_set.is_partition()

    def test_locality_beats_random(self, small_synthetic):
        hyb = HybridChunker(target_chunk_size=100).form_chunks(small_synthetic)
        rr = RoundRobinChunker(n_chunks=hyb.n_chunks).form_chunks(small_synthetic)
        assert radii(hyb.chunk_set).mean() < radii(rr.chunk_set).mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridChunker(target_chunk_size=0)

    def test_tiny_collection(self, tiny_collection):
        result = HybridChunker(target_chunk_size=25, seed=3).form_chunks(
            tiny_collection
        )
        result.validate()
        assert result.chunk_set.sizes().sum() == len(tiny_collection)
