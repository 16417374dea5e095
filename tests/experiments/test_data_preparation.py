"""Tests for the experiment data-preparation pipeline itself."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import data as data_module
from repro.experiments.config import K, SIZE_CLASSES, TEST_SCALE
from repro.experiments.data import prepare


class TestPrepare:
    def test_cached_per_scale(self, experiment_data):
        assert prepare(TEST_SCALE) is experiment_data

    def test_collection_matches_scale(self, experiment_data):
        assert experiment_data.collection.dimensions == 24
        assert len(experiment_data.collection) > 1000

    def test_mpi_positive(self, experiment_data):
        assert experiment_data.mpi > 0

    def test_workload_sizes(self, experiment_data):
        for name in ("DQ", "SQ"):
            assert len(experiment_data.workloads[name]) == TEST_SCALE.n_queries

    def test_dq_queries_from_collection(self, experiment_data):
        workload = experiment_data.workloads["DQ"]
        for query, row in zip(workload.queries[:5], workload.source_rows[:5]):
            np.testing.assert_allclose(
                query,
                experiment_data.collection.vectors[row].astype(float),
            )

    def test_sr_leaf_matches_bag_average(self, experiment_data):
        """The paper's construction: SR chunk size ~ BAG average."""
        for size_class in SIZE_CLASSES:
            bag = experiment_data.built("BAG", size_class).chunking
            sr = experiment_data.built("SR", size_class).chunking
            leaf = sr.chunk_set.sizes().max()
            assert leaf == pytest.approx(bag.mean_chunk_size, abs=1.0)

    def test_bag_thresholds_strictly_ordered(self, experiment_data):
        counts = [
            experiment_data.built("BAG", size_class).index.n_chunks
            for size_class in SIZE_CLASSES
        ]
        assert counts[0] > counts[1] > counts[2]

    def test_ground_truth_ids_exist_in_retained(self, experiment_data):
        for size_class in SIZE_CLASSES:
            retained_ids = set(
                experiment_data.retained(size_class).ids.tolist()
            )
            truth = experiment_data.ground_truth(size_class, "DQ")
            for i in range(3):
                assert set(truth.get(i).tolist()) <= retained_ids

    def test_indexes_page_layouts_valid(self, experiment_data):
        for built in experiment_data.indexes.values():
            offset = 0
            for meta in built.index.metas:
                assert meta.page_offset == offset
                offset += meta.page_count


class TestCacheControl:
    def test_eviction_forces_deterministic_rebuild(self):
        # Use an isolated scale and evict only that entry, so the shared
        # session fixture's cache survives this test.
        scale = dataclasses.replace(TEST_SCALE, name="cache-control-test")
        try:
            first = prepare(scale)
            assert prepare(scale) is first
            data_module._CACHE.pop(scale)
            second = prepare(scale)
            assert second is not first
            # Determinism: the rebuilt data is identical.
            assert np.array_equal(
                first.collection.vectors, second.collection.vectors
            )
            bag_first = first.built("BAG", "SMALL").chunking
            bag_second = second.built("BAG", "SMALL").chunking
            assert bag_first.n_chunks == bag_second.n_chunks
            assert np.array_equal(
                bag_first.outlier_rows, bag_second.outlier_rows
            )
        finally:
            data_module._CACHE.pop(scale, None)

    def test_derived_scale_is_not_served_the_named_scale(self, experiment_data):
        """A ``dataclasses.replace`` variant keeps the name of the scale it
        came from; the cache must key on every field, not the name."""
        scale = dataclasses.replace(
            TEST_SCALE, n_queries=40, n_queries_sweep=20
        )
        try:
            derived = prepare(scale)
            assert derived is not experiment_data
            assert derived.scale == scale
            assert len(derived.workloads["DQ"]) == 40
            assert len(derived.ground_truth("SMALL", "DQ").get(0)) == K
            assert prepare(TEST_SCALE) is experiment_data
        finally:
            data_module._CACHE.pop(scale, None)
