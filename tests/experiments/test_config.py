"""Tests for experiment configuration."""

import dataclasses

import pytest

from repro.experiments.config import (
    DEFAULT_SCALE,
    K,
    PAPER_MEDIUM_CHUNK,
    SIZE_CLASSES,
    TEST_SCALE,
    ExperimentScale,
    get_scale,
    scaled_cost_model,
)


class TestRegistry:
    def test_lookup(self):
        assert get_scale("default") is DEFAULT_SCALE
        assert get_scale("test") is TEST_SCALE

    def test_unknown(self):
        with pytest.raises(KeyError, match="unknown scale"):
            get_scale("huge")

    def test_size_classes(self):
        assert SIZE_CLASSES == ("SMALL", "MEDIUM", "LARGE")


class TestScale:
    def test_paper_constants(self):
        assert K == 30  # the paper's precision@30
        assert PAPER_MEDIUM_CHUNK == 1719  # Table 1 MEDIUM

    def test_thresholds_descend(self):
        thresholds = DEFAULT_SCALE.bag_thresholds(10_000)
        assert thresholds[0] > thresholds[1] > thresholds[2]

    def test_thresholds_scale_with_collection(self):
        small = DEFAULT_SCALE.bag_thresholds(1_000)
        large = DEFAULT_SCALE.bag_thresholds(100_000)
        assert all(a < b for a, b in zip(small, large))

    def test_tiny_collection_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            DEFAULT_SCALE.bag_thresholds(20)

    def test_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TEST_SCALE, n_queries=0)
        with pytest.raises(ValueError):
            dataclasses.replace(
                TEST_SCALE, bag_threshold_fractions=(0.1, 0.2, 0.3)
            )
        with pytest.raises(ValueError):
            dataclasses.replace(TEST_SCALE, n_queries_sweep=10_000)
        with pytest.raises(ValueError):
            dataclasses.replace(TEST_SCALE, chunk_size_ladder=(4,))


class TestScaledCostModel:
    def test_preserves_medium_chunk_cpu(self):
        """The scaled model charges our MEDIUM chunk what the paper's
        hardware charged its MEDIUM chunk."""
        model = scaled_cost_model(expected_medium_chunk=100)
        ours = model.cpu.chunk_processing_time_s(100)
        from repro.simio.calibration import PAPER_2005_COST_MODEL

        papers = PAPER_2005_COST_MODEL.cpu.chunk_processing_time_s(
            PAPER_MEDIUM_CHUNK
        )
        assert ours == pytest.approx(papers, rel=1e-6)

    def test_disk_untouched(self):
        from repro.simio.calibration import PAPER_2005_COST_MODEL

        model = scaled_cost_model(50)
        assert model.disk == PAPER_2005_COST_MODEL.disk

    def test_validation(self):
        with pytest.raises(ValueError):
            scaled_cost_model(0)
