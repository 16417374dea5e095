"""Tests for the chunk model and its invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.chunk import (
    Chunk,
    ChunkMeta,
    ChunkSet,
    bounding_rectangle,
    summarize_members,
)
from descriptors import from_vectors


class TestSummarize:
    def test_centroid_and_radius(self):
        vectors = np.array([[0.0, 0.0], [2.0, 0.0]])
        centroid, radius = summarize_members(vectors)
        np.testing.assert_allclose(centroid, [1.0, 0.0])
        assert radius == pytest.approx(1.0)

    def test_single_point_zero_radius(self):
        centroid, radius = summarize_members(np.array([[3.0, 4.0]]))
        assert radius == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_members(np.empty((0, 3)))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_refused(self, poison):
        """Every chunker reaches this through ``Chunk.from_rows``."""
        vectors = np.random.default_rng(4).standard_normal((12, 3)).astype(np.float32)
        vectors[5, 1] = poison
        collection = from_vectors(vectors)
        with pytest.raises(ValueError, match="non-finite"):
            Chunk.from_rows(collection, np.arange(12))
        # Rows that leave the bad one out are unaffected.
        assert np.isfinite(Chunk.from_rows(collection, [0, 1, 2]).radius)

    def test_huge_finite_members_accepted(self):
        vectors = np.array([[1e18, -1e18], [3e18, 2e18]], dtype=np.float32)
        centroid, radius = summarize_members(vectors)
        assert np.isfinite(centroid).all() and np.isfinite(radius)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 6)),
            elements=st.floats(-50, 50),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_radius_covers_all_members(self, vectors):
        centroid, radius = summarize_members(vectors)
        dists = np.linalg.norm(vectors - centroid, axis=1)
        assert np.all(dists <= radius + 1e-9)
        # Minimality: the radius is attained by some member.
        assert np.isclose(dists.max(), radius)


class TestBoundingRectangle:
    def test_exact_extent_of_float32_members(self):
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((37, 5)).astype(np.float32)
        lower, upper = bounding_rectangle(vectors[:30])  # a non-owning view
        assert lower.dtype == upper.dtype == np.float64
        # Bit for bit the axis-0 reduction, and float32-representable.
        assert lower.tobytes() == vectors[:30].min(axis=0).astype(np.float64).tobytes()
        assert upper.tobytes() == vectors[:30].max(axis=0).astype(np.float64).tobytes()
        assert np.array_equal(lower, lower.astype(np.float32))

    def test_single_member_is_a_point(self):
        lower, upper = bounding_rectangle(np.array([[3.0, -4.0]], dtype=np.float32))
        assert lower.tolist() == upper.tolist() == [3.0, -4.0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_rectangle(np.empty((0, 3), dtype=np.float32))


class TestChunk:
    def test_from_rows(self, tiny_collection):
        chunk = Chunk.from_rows(tiny_collection, [0, 1, 2])
        assert len(chunk) == 3
        assert chunk.contains_all_members(tiny_collection)

    def test_empty_rows_raise(self, tiny_collection):
        with pytest.raises(ValueError):
            Chunk.from_rows(tiny_collection, [])

    def test_member_ids(self, tiny_collection):
        chunk = Chunk.from_rows(tiny_collection, [5, 7])
        assert list(tiny_collection.ids[chunk.member_rows]) == [5, 7]


class TestChunkMeta:
    def make(self, **kwargs):
        defaults = dict(
            chunk_id=0,
            centroid=np.zeros(3),
            radius=1.0,
            n_descriptors=10,
            page_offset=0,
            page_count=1,
        )
        defaults.update(kwargs)
        # The sphere's bounding box: a rectangle any centroid/radius allows.
        centroid = np.asarray(defaults["centroid"], dtype=np.float64)
        defaults.setdefault("lower", centroid - abs(defaults["radius"]))
        defaults.setdefault("upper", centroid + abs(defaults["radius"]))
        return ChunkMeta(**defaults)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            self.make(n_descriptors=0)
        with pytest.raises(ValueError):
            self.make(radius=-1.0)
        with pytest.raises(ValueError):
            self.make(page_count=0)
        with pytest.raises(ValueError, match="lower bound exceeds"):
            self.make(lower=np.array([0.0, 0.5, 0.0]), upper=np.array([1.0, 0.25, 1.0]))
        with pytest.raises(ValueError, match="lower bound exceeds"):
            self.make(lower=np.array([0.0, np.nan, 0.0]))
        with pytest.raises(ValueError, match="share one shape"):
            self.make(lower=np.zeros(2), upper=np.ones(2))


class TestChunkSet:
    def make_set(self, collection, groups):
        return ChunkSet(
            collection, [Chunk.from_rows(collection, g) for g in groups]
        )

    def test_partition_detection(self, tiny_collection):
        n = len(tiny_collection)
        full = self.make_set(
            tiny_collection, [range(0, n // 2), range(n // 2, n)]
        )
        assert full.is_partition()
        partial = self.make_set(tiny_collection, [range(0, n // 2)])
        assert not partial.is_partition()

    def test_sizes_and_average(self, tiny_collection):
        cs = self.make_set(tiny_collection, [range(0, 10), range(10, 60)])
        assert list(cs.sizes()) == [10, 50]
        assert cs.average_size() == 30.0

    def test_largest_sizes(self, tiny_collection):
        cs = self.make_set(
            tiny_collection, [range(0, 5), range(5, 45), range(45, 60)]
        )
        assert list(cs.largest_sizes(2)) == [40, 15]

    def test_validate_catches_duplicates(self, tiny_collection):
        cs = self.make_set(tiny_collection, [range(0, 10), range(5, 60)])
        with pytest.raises(ValueError, match="more than one chunk"):
            cs.validate()

    def test_validate_passes_on_partition(self, tiny_collection):
        n = len(tiny_collection)
        cs = self.make_set(tiny_collection, [range(0, n)])
        cs.validate()

    def test_empty_chunk_set_raises(self, tiny_collection):
        with pytest.raises(ValueError):
            ChunkSet(tiny_collection, [])

    def test_validate_catches_bad_radius(self, tiny_collection):
        chunk = Chunk.from_rows(tiny_collection, range(len(tiny_collection)))
        chunk.radius = 0.0  # corrupt the invariant
        cs = ChunkSet(tiny_collection, [chunk])
        with pytest.raises(ValueError, match="bounding radius"):
            cs.validate()
