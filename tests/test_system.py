"""Tests for the end-to-end image retrieval system facade."""

import numpy as np
import pytest

from repro.chunking.hybrid import HybridChunker
from repro.core.dataset import DescriptorCollection
from repro.system import ImageRetrievalSystem


@pytest.fixture()
def image_collection():
    rng = np.random.default_rng(12)
    centers = rng.uniform(0, 10, size=(8, 6))
    parts, image_ids = [], []
    for image, center in enumerate(centers):
        parts.append(center + 0.2 * rng.standard_normal((25, 6)))
        image_ids.extend([image] * 25)
    return DescriptorCollection(
        vectors=np.vstack(parts).astype(np.float32),
        ids=np.arange(200),
        image_ids=np.asarray(image_ids),
    )


@pytest.fixture()
def system(image_collection):
    s = ImageRetrievalSystem(default_stop_chunks=4)
    s.index_images(image_collection)
    return s


class TestBuild:
    def test_counts(self, system, image_collection):
        assert system.n_descriptors == len(image_collection)
        assert system.n_images == 8

    def test_unbuilt_rejects_queries(self):
        s = ImageRetrievalSystem()
        with pytest.raises(RuntimeError, match="index images first"):
            s.find_similar_descriptors(np.zeros(6))
        with pytest.raises(RuntimeError):
            s.add_image(0, np.zeros((1, 6)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ImageRetrievalSystem().index_images(DescriptorCollection.empty(6))

    def test_custom_chunker(self, image_collection):
        s = ImageRetrievalSystem(chunker=HybridChunker(target_chunk_size=30))
        s.index_images(image_collection)
        assert s.n_descriptors == len(image_collection)

    def test_validation(self):
        with pytest.raises(ValueError):
            ImageRetrievalSystem(default_stop_chunks=0)


class TestQueries:
    def test_descriptor_search(self, system, image_collection):
        result = system.find_similar_descriptors(
            image_collection.vectors[3].astype(float), k=5, exact=True
        )
        assert result.neighbor_ids()[0] == 3
        assert result.completed

    def test_approximate_by_default(self, system, image_collection):
        result = system.find_similar_descriptors(
            image_collection.vectors[3].astype(float), k=5
        )
        assert result.chunks_read <= 4

    def test_image_search_finds_source(self, system, image_collection):
        rows = np.flatnonzero(image_collection.image_ids == 5)[:10]
        matches = system.find_similar_images(
            image_collection.vectors[rows].astype(float)
        )
        assert matches[0].image_id == 5

    def test_one_searcher_per_index_generation(self, system, image_collection):
        """The searcher (and a router's k-means) is built once per index
        generation, and again when ``prune``/``cost_model`` are reassigned
        or maintenance publishes a new generation."""
        queries = image_collection.vectors[:4].astype(float)
        system.find_similar_descriptors(queries[0], k=5)
        flat = system._searcher()
        system.find_similar_descriptors_batch(queries, k=5)
        assert system._searcher() is flat

        routed = system.find_similar_descriptors_batch(queries, k=5, use_router=True)
        router = system._searcher(use_router=True).router
        assert router is not None
        system.find_similar_descriptors_batch(queries, k=5, use_router=True)
        assert system._searcher(use_router=True).router is router

        system.prune = False
        unpruned = system.find_similar_descriptors_batch(
            queries, k=5, use_router=True
        )
        assert system._searcher(use_router=True).prune is False
        assert system._searcher(use_router=True).router is router
        assert unpruned.total_chunks_pruned == 0
        assert unpruned.stop_reasons() == routed.stop_reasons()
        np.testing.assert_array_equal(
            unpruned.neighbor_ids_matrix(), routed.neighbor_ids_matrix()
        )

        system.add_image(99, image_collection.vectors[:3] + 0.01)
        assert system._searcher().index is not flat.index
        assert system._searcher(use_router=True).router is not router


class TestLiveUpdates:
    def test_add_then_find(self, system):
        rng = np.random.default_rng(3)
        new_image = 100.0 + 0.1 * rng.standard_normal((12, 6))
        assert system.add_image(99, new_image) == 12
        assert system.n_images == 9
        matches = system.find_similar_images(new_image[:5], exact=True)
        assert matches[0].image_id == 99

    def test_remove_image(self, system, image_collection):
        system.remove_image(2)
        assert system.n_images == 7
        assert system.n_descriptors == len(image_collection) - 25
        rows = np.flatnonzero(image_collection.image_ids == 2)[:5]
        matches = system.find_similar_images(
            image_collection.vectors[rows].astype(float), exact=True
        )
        assert all(match.image_id != 2 for match in matches)

    def test_remove_missing_image(self, system):
        with pytest.raises(KeyError):
            system.remove_image(12345)

    def test_add_empty_image_rejected(self, system):
        with pytest.raises(ValueError):
            system.add_image(50, np.empty((0, 6)))


class TestPersistence:
    def test_save_load_roundtrip(self, system, image_collection, tmp_path):
        directory = str(tmp_path / "retrieval")
        query_rows = np.flatnonzero(image_collection.image_ids == 4)[:8]
        query = image_collection.vectors[query_rows].astype(float)
        before = system.find_similar_images(query, exact=True)

        system.save(directory)
        loaded = ImageRetrievalSystem.load(directory)
        assert loaded.n_descriptors == system.n_descriptors
        assert loaded.n_images == system.n_images
        after = loaded.find_similar_images(query, exact=True)
        assert [m.image_id for m in before] == [m.image_id for m in after]
        assert [m.votes for m in before] == [m.votes for m in after]

    def test_load_then_update(self, system, tmp_path):
        directory = str(tmp_path / "retrieval2")
        system.save(directory)
        loaded = ImageRetrievalSystem.load(directory)
        rng = np.random.default_rng(1)
        loaded.add_image(77, 50.0 + rng.standard_normal((5, 6)))
        assert loaded.n_images == system.n_images + 1


class TestMaintainedPersistence:
    def test_save_after_maintenance_compacts(self, system, tmp_path):
        """A system that accumulated relocation holes persists fine; the
        saved layout is compacted (regression test for the layout-drift
        failure)."""
        rng = np.random.default_rng(8)
        for i in range(3):
            system.add_image(200 + i, 20.0 + rng.standard_normal((30, 6)))
        system.remove_image(0)
        directory = str(tmp_path / "maintained")
        system.save(directory)
        loaded = ImageRetrievalSystem.load(directory)
        assert loaded.n_descriptors == system.n_descriptors
        offset = 0
        for meta in loaded._index.metas:
            assert meta.page_offset == offset
            offset += meta.page_count
