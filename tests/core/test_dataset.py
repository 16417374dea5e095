"""Tests for the descriptor collection data model."""

import numpy as np
import pytest

from repro.core.dataset import (
    DESCRIPTOR_RECORD_BYTES,
    DescriptorCollection,
)
from descriptors import from_vectors


class TestConstruction:
    def test_from_vectors_defaults(self):
        col = from_vectors(np.ones((4, 3)))
        assert len(col) == 4
        assert col.dimensions == 3
        assert list(col.ids) == [0, 1, 2, 3]
        assert list(col.image_ids) == [0, 1, 2, 3]

    def test_single_vector_promoted(self):
        col = from_vectors(np.ones(5))
        assert len(col) == 1
        assert col.dimensions == 5

    def test_empty(self):
        col = DescriptorCollection.empty(24)
        assert len(col) == 0
        assert col.dimensions == 24

    def test_dtype_coercion(self):
        col = from_vectors(np.ones((2, 2), dtype=np.float64))
        assert col.vectors.dtype == np.float32
        assert col.ids.dtype == np.int64

    def test_mismatched_ids_raise(self):
        with pytest.raises(ValueError, match="ids shape"):
            DescriptorCollection(
                vectors=np.ones((3, 2)),
                ids=np.arange(2),
                image_ids=np.arange(3),
            )

    def test_mismatched_image_ids_raise(self):
        with pytest.raises(ValueError, match="image_ids shape"):
            DescriptorCollection(
                vectors=np.ones((3, 2)),
                ids=np.arange(3),
                image_ids=np.arange(2),
            )

    def test_1d_vectors_raise(self):
        with pytest.raises(ValueError, match="2-D"):
            DescriptorCollection(
                vectors=np.ones(3), ids=np.arange(3), image_ids=np.arange(3)
            )


class TestRecordLayout:
    def test_paper_record_is_100_bytes(self):
        assert DESCRIPTOR_RECORD_BYTES == 100

    def test_storage_bytes(self):
        col = from_vectors(np.ones((10, 24)))
        assert col.storage_bytes == 1000


class TestSelection:
    def test_take_preserves_order(self, tiny_collection):
        sub = tiny_collection.take([5, 1, 3])
        assert list(sub.ids) == [5, 1, 3]
        np.testing.assert_array_equal(sub.vectors[0], tiny_collection.vectors[5])

    def test_mask(self, tiny_collection):
        keep = np.zeros(len(tiny_collection), dtype=bool)
        keep[:10] = True
        sub = tiny_collection.mask(keep)
        assert len(sub) == 10
        assert list(sub.ids) == list(range(10))

    def test_mask_wrong_shape(self, tiny_collection):
        with pytest.raises(ValueError, match="mask shape"):
            tiny_collection.mask(np.ones(3, dtype=bool))

    def test_equality(self, tiny_collection):
        assert tiny_collection == tiny_collection.take(
            np.arange(len(tiny_collection))
        )
        assert tiny_collection != tiny_collection.take([0, 1])


class TestStatistics:
    def test_centroid(self):
        col = from_vectors(
            np.array([[0.0, 0.0], [2.0, 4.0]])
        )
        np.testing.assert_allclose(col.centroid(), [1.0, 2.0])

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            DescriptorCollection.empty(3).centroid()

    def test_norms(self):
        col = from_vectors(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(col.norms(), [5.0])

    def test_dimension_ranges_untrimmed(self):
        col = from_vectors(
            np.array([[0.0, 10.0], [1.0, 20.0], [2.0, 30.0]])
        )
        ranges = col.dimension_ranges()
        np.testing.assert_allclose(ranges[:, 0], [0.0, 10.0])
        np.testing.assert_allclose(ranges[:, 1], [2.0, 30.0])

    def test_dimension_ranges_trimmed_narrower(self, tiny_collection):
        full = tiny_collection.dimension_ranges(0.0)
        trimmed = tiny_collection.dimension_ranges(0.05)
        assert np.all(trimmed[:, 0] >= full[:, 0])
        assert np.all(trimmed[:, 1] <= full[:, 1])

    def test_bad_trim_fraction(self, tiny_collection):
        with pytest.raises(ValueError):
            tiny_collection.dimension_ranges(0.5)

    def test_ranges_empty_raise(self):
        with pytest.raises(ValueError):
            DescriptorCollection.empty(2).dimension_ranges()
