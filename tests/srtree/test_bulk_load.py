"""Tests for the static SR-tree build (the paper's chunk-formation path)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.srtree.bulk_load import ordered_partition


def leaf_sizes(vectors, capacity):
    _, bounds, _ = ordered_partition(vectors, capacity)
    return np.diff(bounds).tolist()


class TestPartition:
    def test_uniform_sizes(self, rng):
        vectors = rng.standard_normal((1000, 8)).astype(np.float32)
        sizes = leaf_sizes(vectors, 64)
        # All leaves are exactly the capacity except at most one remainder.
        assert sum(1 for s in sizes if s != 64) <= 1
        assert sum(sizes) == 1000

    def test_covers_all_rows_once(self, rng):
        vectors = rng.standard_normal((333, 5)).astype(np.float32)
        rows, _, _ = ordered_partition(vectors, 10)
        assert sorted(rows.tolist()) == list(range(333))

    def test_capacity_of_one(self, rng):
        vectors = rng.standard_normal((7, 2)).astype(np.float32)
        assert len(leaf_sizes(vectors, 1)) == 7

    def test_capacity_exceeding_n(self, rng):
        vectors = rng.standard_normal((5, 2)).astype(np.float32)
        assert len(leaf_sizes(vectors, 100)) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ordered_partition(np.empty((0, 3), dtype=np.float32), 4)

    def test_bad_capacity_rejected(self, rng):
        with pytest.raises(ValueError):
            ordered_partition(rng.standard_normal((4, 2)).astype(np.float32), 0)

    @pytest.mark.parametrize(
        "vectors",
        [
            np.zeros((4, 2)),
            np.zeros((4, 2), dtype=np.int64),
            np.zeros((4, 2), dtype=np.float16),
            [[0.0, 1.0], [2.0, 3.0]],
        ],
        ids=["float64", "int64", "float16", "list"],
    )
    def test_only_float32_is_accepted(self, vectors):
        with pytest.raises(TypeError, match="float32"):
            ordered_partition(vectors, 1)

    def test_more_rows_than_32_bit_positions_rejected(self):
        # A zero-stride view: 2**32 rows and not one byte allocated for them.
        vectors = np.broadcast_to(np.zeros((1, 1), dtype=np.float32), (2**32, 1))
        with pytest.raises(ValueError, match="limit of 4294967295"):
            ordered_partition(vectors, 1000)

    def test_spatial_coherence(self, tiny_collection):
        """Leaves should roughly follow the three clusters: a leaf never
        spans all three cluster centers."""
        rows, bounds, _ = ordered_partition(tiny_collection.vectors, 20)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            clusters = set(int(r) // 20 for r in rows[lo:hi])
            assert len(clusters) <= 2

    @given(st.integers(2, 500), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_property_sizes(self, n, capacity):
        rng = np.random.default_rng(n * 1000 + capacity)
        vectors = rng.standard_normal((n, 3)).astype(np.float32)
        sizes = leaf_sizes(vectors, capacity)
        assert sum(sizes) == n
        assert all(1 <= s <= capacity for s in sizes)
        assert sum(1 for s in sizes if s < capacity) <= 1
