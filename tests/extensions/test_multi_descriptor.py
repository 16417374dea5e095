"""Tests for multi-descriptor image-level search."""

import numpy as np
import pytest

from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk_index import build_chunk_index
from repro.core.dataset import DescriptorCollection
from repro.core.search import ChunkSearcher
from repro.core.stop_rules import MaxChunks
from repro.extensions.multi_descriptor import MultiDescriptorSearcher


@pytest.fixture()
def image_collection():
    """Three 'images', each a cluster of 20 descriptors."""
    rng = np.random.default_rng(8)
    centers = np.array(
        [[0.0, 0.0, 0.0, 0.0], [6.0, 6.0, 0.0, 0.0], [0.0, 0.0, 9.0, 9.0]]
    )
    parts, image_ids = [], []
    for image, center in enumerate(centers):
        parts.append(center + 0.3 * rng.standard_normal((20, 4)))
        image_ids.extend([image] * 20)
    return DescriptorCollection(
        vectors=np.vstack(parts).astype(np.float32),
        ids=np.arange(60),
        image_ids=np.asarray(image_ids),
    )


def make_searcher(indexed, mapped):
    """A voting searcher over ``indexed`` whose mapping covers ``mapped``."""
    chunking = SRTreeChunker(leaf_capacity=10).form_chunks(indexed)
    index = build_chunk_index(chunking.retained, chunking.chunk_set)
    return MultiDescriptorSearcher(
        ChunkSearcher(index), dict(zip(mapped.ids.tolist(), mapped.image_ids.tolist()))
    )


@pytest.fixture()
def searcher(image_collection):
    return make_searcher(image_collection, image_collection)


class TestVoting:
    def test_query_image_ranks_itself_first(self, searcher, image_collection):
        query_rows = np.flatnonzero(image_collection.image_ids == 1)[:8]
        query = image_collection.vectors[query_rows].astype(float)
        matches = searcher.search_image(query, k_per_descriptor=5)
        assert matches[0].image_id == 1
        assert matches[0].votes >= matches[-1].votes

    def test_votes_bounded_by_query_descriptors(self, searcher, image_collection):
        query_rows = np.flatnonzero(image_collection.image_ids == 0)[:6]
        query = image_collection.vectors[query_rows].astype(float)
        matches = searcher.search_image(query, k_per_descriptor=20)
        for match in matches:
            assert match.votes <= 6
            assert match.matched_query_descriptors <= 6

    def test_single_descriptor_query(self, searcher, image_collection):
        query = image_collection.vectors[45].astype(float)  # image 2
        matches = searcher.search_image(query, k_per_descriptor=3)
        assert matches[0].image_id == 2

    def test_top_images_limit(self, searcher, image_collection):
        query = image_collection.vectors[:10].astype(float)
        matches = searcher.search_image(
            query, k_per_descriptor=30, top_images=2
        )
        assert len(matches) <= 2

    @pytest.mark.parametrize("top_images", [0, -1])
    def test_top_images_must_be_positive(self, searcher, image_collection, top_images):
        """A slice by a non-positive count would silently drop matches
        (``[:-1]`` loses only the last one)."""
        query = image_collection.vectors[:10].astype(float)
        with pytest.raises(ValueError, match="top_images"):
            searcher.search_image(query, k_per_descriptor=30, top_images=top_images)

    def test_stop_rule_passthrough(self, searcher, image_collection):
        query = image_collection.vectors[:5].astype(float)
        matches = searcher.search_image(
            query, k_per_descriptor=5, stop_rule=MaxChunks(1)
        )
        assert matches  # approximate, but something comes back

    def test_empty_query_rejected(self, searcher):
        with pytest.raises(ValueError):
            searcher.search_image(np.empty((0, 4)))

    def test_mismatched_index_rejected(self, image_collection):
        """Every returned descriptor id must have an image."""
        searcher = make_searcher(image_collection, image_collection.take(range(30)))
        query = image_collection.vectors[45].astype(float)
        with pytest.raises(ValueError, match="has no image"):
            searcher.search_image(query, k_per_descriptor=3)


class TestVerifiedVoting:
    def test_distance_cutoff_blocks_far_votes(self, searcher, image_collection):
        """A query far from everything gets votes without the cutoff and
        none with a tight one."""
        far_query = np.full((3, 4), 100.0)
        unverified = searcher.search_image(far_query, k_per_descriptor=5)
        assert unverified and unverified[0].votes > 0
        verified = searcher.search_image(
            far_query, k_per_descriptor=5, max_match_distance=1.0
        )
        assert verified == []

    def test_cutoff_keeps_close_votes(self, searcher, image_collection):
        query = image_collection.vectors[:4].astype(float)
        verified = searcher.search_image(
            query, k_per_descriptor=5, max_match_distance=2.0
        )
        assert verified and verified[0].image_id == 0
