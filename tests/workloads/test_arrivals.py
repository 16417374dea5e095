"""Tests for the open-loop Poisson arrival generator."""

import numpy as np
import pytest

from repro.workloads.arrivals import ArrivalSchedule, poisson_arrival_times


class TestPoissonArrivals:
    def test_deterministic_for_same_key(self):
        a = poisson_arrival_times(64, 10.0, seed=5)
        b = poisson_arrival_times(64, 10.0, seed=5)
        np.testing.assert_array_equal(a.times_s, b.times_s)

    def test_seed_changes_stream(self):
        a = poisson_arrival_times(64, 10.0, seed=5)
        b = poisson_arrival_times(64, 10.0, seed=6)
        assert not np.array_equal(a.times_s, b.times_s)

    def test_shape_and_monotonicity(self):
        schedule = poisson_arrival_times(100, 25.0, seed=1)
        assert len(schedule) == 100
        assert schedule.times_s.dtype == np.float64
        assert np.all(schedule.times_s > 0.0)
        assert np.all(np.diff(schedule.times_s) >= 0.0)

    def test_mean_gap_tracks_rate(self):
        schedule = poisson_arrival_times(20_000, 40.0, seed=3)
        gaps = np.diff(np.concatenate(([0.0], schedule.times_s)))
        assert gaps.mean() == pytest.approx(1.0 / 40.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="request"):
            poisson_arrival_times(0, 10.0, seed=1)
        with pytest.raises(ValueError, match="rate"):
            poisson_arrival_times(5, 0.0, seed=1)


class TestArrivalSchedule:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ArrivalSchedule(rate_qps=1.0, seed=0, times_s=np.array([1.0, 0.5]))

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError, match="1-d"):
            ArrivalSchedule(rate_qps=1.0, seed=0, times_s=np.zeros((2, 2)))

    def test_casts_to_float64(self):
        schedule = ArrivalSchedule(
            rate_qps=1.0, seed=0, times_s=np.array([1, 2, 3], dtype=np.int32)
        )
        assert schedule.times_s.dtype == np.float64
        assert schedule.times_s.tolist() == [1.0, 2.0, 3.0]
