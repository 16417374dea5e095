"""Tests for the DQ and SQ workloads."""

import numpy as np
import pytest

from repro.workloads.queries import (
    Workload,
    dataset_queries,
    space_queries,
)
from descriptors import from_vectors


class TestWorkloadContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            Workload("X", np.ones(3), np.zeros(3))  # 1-D queries
        with pytest.raises(ValueError):
            Workload("X", np.ones((3, 2)), np.zeros(2))  # unparallel

    def test_iteration_and_len(self):
        w = Workload("X", np.ones((4, 2)), np.full(4, -1))
        assert len(w) == 4
        assert w.queries.shape[1] == 2
        assert len(list(w)) == 4


class TestDatasetQueries:
    def test_queries_come_from_collection(self, tiny_collection):
        w = dataset_queries(tiny_collection, 10, seed=0)
        assert w.name == "DQ"
        for query, row in zip(w.queries, w.source_rows):
            np.testing.assert_allclose(
                query, tiny_collection.vectors[row].astype(float)
            )

    def test_deterministic(self, tiny_collection):
        a = dataset_queries(tiny_collection, 5, seed=7)
        b = dataset_queries(tiny_collection, 5, seed=7)
        assert np.array_equal(a.queries, b.queries)

    def test_oversampling_allowed(self, tiny_collection):
        w = dataset_queries(tiny_collection, len(tiny_collection) + 10, seed=0)
        assert len(w) == len(tiny_collection) + 10

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            dataset_queries(from_vectors(np.empty((0, 2))), 1)

    def test_nonpositive_count_rejected(self, tiny_collection):
        with pytest.raises(ValueError):
            dataset_queries(tiny_collection, 0)


class TestSpaceQueries:
    def test_within_trimmed_ranges(self, tiny_collection):
        w = space_queries(tiny_collection, 50, seed=0)
        assert w.name == "SQ"
        ranges = tiny_collection.dimension_ranges(0.05)
        assert np.all(w.queries >= ranges[:, 0] - 1e-12)
        assert np.all(w.queries <= ranges[:, 1] + 1e-12)

    def test_source_rows_are_minus_one(self, tiny_collection):
        w = space_queries(tiny_collection, 5, seed=0)
        assert np.all(w.source_rows == -1)

    def test_uniformity_spread(self, tiny_collection):
        """SQ queries should span the trimmed range, not cluster."""
        w = space_queries(tiny_collection, 400, seed=1)
        ranges = tiny_collection.dimension_ranges(0.05)
        widths = ranges[:, 1] - ranges[:, 0]
        spread = w.queries.max(axis=0) - w.queries.min(axis=0)
        assert np.all(spread > 0.8 * widths)

    def test_deterministic(self, tiny_collection):
        a = space_queries(tiny_collection, 5, seed=3)
        b = space_queries(tiny_collection, 5, seed=3)
        assert np.array_equal(a.queries, b.queries)

