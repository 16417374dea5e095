"""Tests for the static SR-tree build (the paper's chunk-formation path)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.srtree.bulk_load import partition_rows_uniform


class TestPartition:
    def test_uniform_sizes(self, rng):
        vectors = rng.standard_normal((1000, 8))
        groups = partition_rows_uniform(vectors, leaf_capacity=64)
        sizes = [g.size for g in groups]
        # All groups are exactly the capacity except at most one remainder.
        assert sum(1 for s in sizes if s != 64) <= 1
        assert sum(sizes) == 1000

    def test_covers_all_rows_once(self, rng):
        vectors = rng.standard_normal((333, 5))
        groups = partition_rows_uniform(vectors, leaf_capacity=10)
        all_rows = np.concatenate(groups)
        assert sorted(all_rows.tolist()) == list(range(333))

    def test_capacity_of_one(self, rng):
        vectors = rng.standard_normal((7, 2))
        groups = partition_rows_uniform(vectors, leaf_capacity=1)
        assert len(groups) == 7

    def test_capacity_exceeding_n(self, rng):
        vectors = rng.standard_normal((5, 2))
        groups = partition_rows_uniform(vectors, leaf_capacity=100)
        assert len(groups) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_rows_uniform(np.empty((0, 3)), 4)

    def test_bad_capacity_rejected(self, rng):
        with pytest.raises(ValueError):
            partition_rows_uniform(rng.standard_normal((4, 2)), 0)

    def test_spatial_coherence(self, tiny_collection):
        """Groups should roughly follow the three clusters: a group never
        spans all three cluster centers."""
        groups = partition_rows_uniform(
            tiny_collection.vectors.astype(float), leaf_capacity=20
        )
        for rows in groups:
            clusters = set(int(r) // 20 for r in rows)
            assert len(clusters) <= 2

    @given(st.integers(2, 500), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_property_sizes(self, n, capacity):
        rng = np.random.default_rng(n * 1000 + capacity)
        vectors = rng.standard_normal((n, 3))
        groups = partition_rows_uniform(vectors, capacity)
        sizes = [g.size for g in groups]
        assert sum(sizes) == n
        assert all(1 <= s <= capacity for s in sizes)
        assert sum(1 for s in sizes if s < capacity) <= 1

