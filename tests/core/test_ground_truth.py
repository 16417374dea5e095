"""Tests for the sequential-scan ground truth and its store."""

import numpy as np
import pytest

from repro.core import ground_truth
from repro.core.dataset import DescriptorCollection
from repro.core.ground_truth import GroundTruthStore, exact_knn, exact_knn_batch
from descriptors import from_vectors


class TestExactKnn:
    def test_self_query_returns_self_first(self, tiny_collection):
        query = tiny_collection.vectors[7].astype(float)
        ids = exact_knn(tiny_collection, query, 3)
        assert ids[0] == 7

    def test_blockwise_equals_monolithic(self, tiny_collection, monkeypatch):
        query = tiny_collection.vectors[3].astype(float)
        whole = exact_knn(tiny_collection, query, 10)
        monkeypatch.setattr(ground_truth, "BLOCK_ROWS", 7)
        np.testing.assert_array_equal(exact_knn(tiny_collection, query, 10), whole)

    def test_respects_custom_ids(self):
        col = DescriptorCollection(
            vectors=np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32),
            ids=np.array([100, 200]),
            image_ids=np.array([0, 0]),
        )
        ids = exact_knn(col, np.array([0.9, 0.0]), 2)
        assert list(ids) == [200, 100]

    def test_k_nonpositive_raises(self, tiny_collection):
        with pytest.raises(ValueError):
            exact_knn(tiny_collection, np.zeros(4), 0)

    def test_empty_collection_raises(self):
        with pytest.raises(ValueError):
            exact_knn(from_vectors(np.empty((0, 3))), np.zeros(3), 1)

    def test_ordering_by_distance(self, tiny_collection):
        query = np.zeros(4)
        ids = exact_knn(tiny_collection, query, 20)  # ids are row numbers
        dists = np.linalg.norm(
            tiny_collection.vectors[ids].astype(float) - query, axis=1
        )
        assert np.all(np.diff(dists) >= -1e-12)


class TestBatch:
    def test_shape(self, tiny_collection):
        queries = tiny_collection.vectors[:4].astype(float)
        out = exact_knn_batch(tiny_collection, queries, 5)
        assert out.shape == (4, 5)
        for i in range(4):
            assert out[i, 0] == i

    def test_single_query_promoted(self, tiny_collection):
        out = exact_knn_batch(tiny_collection, np.zeros(4), 2)
        assert out.shape == (1, 2)

    def test_k_too_large(self, tiny_collection):
        with pytest.raises(ValueError, match="exceeds"):
            exact_knn_batch(tiny_collection, np.zeros(4), len(tiny_collection) + 1)


class TestStore:
    def test_put_get_roundtrip(self):
        store = GroundTruthStore(k=3)
        store.put(0, [5, 6, 7])
        np.testing.assert_array_equal(store.get(0), [5, 6, 7])
        assert 0 in store
        assert 1 not in store

    def test_wrong_length_rejected(self):
        store = GroundTruthStore(k=3)
        with pytest.raises(ValueError):
            store.put(0, [1, 2])

    def test_missing_query_raises(self):
        with pytest.raises(KeyError):
            GroundTruthStore(k=2).get(0)

    def test_compute(self, tiny_collection):
        queries = tiny_collection.vectors[:3].astype(float)
        store = GroundTruthStore.compute(tiny_collection, queries, 4)
        assert len(store) == 3
        for i in range(3):
            np.testing.assert_array_equal(
                store.get(i), exact_knn(tiny_collection, queries[i], 4)
            )
