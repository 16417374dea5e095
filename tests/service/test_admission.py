"""Tests for admission control and load shedding."""

import math

import numpy as np
import pytest

from repro.service.admission import (
    QUEUE_CAPACITY,
    SERVICE_TIME_ALPHA,
    SHED_PREDICTED_LATE,
    SHED_QUEUE_FULL,
    AdmissionController,
)
from repro.service.request import QueryRequest


def request(arrival=0.0, deadline=1.0, index=0):
    return QueryRequest(
        index=index,
        query=np.zeros(2),
        arrival_s=arrival,
        deadline_s=deadline,
    )


class TestDecide:
    def test_admits_when_idle(self):
        ctl = AdmissionController(initial_service_estimate_s=0.1)
        admit, reason = ctl.decide(request(), 0.0, [0.0, 0.0], queue_len=0)
        assert admit and reason == ""
        assert ctl.n_shed_full == ctl.n_shed_late == 0

    def test_queue_full_sheds(self):
        ctl = AdmissionController(initial_service_estimate_s=0.1)
        admit, reason = ctl.decide(request(), 0.0, [0.0], queue_len=QUEUE_CAPACITY)
        assert not admit and reason == SHED_QUEUE_FULL
        assert ctl.n_shed_full == 1 and ctl.n_shed_late == 0

    def test_predicted_late_sheds(self):
        # One worker busy until t=5; a request with deadline t=1 cannot
        # possibly finish in time.
        ctl = AdmissionController(initial_service_estimate_s=0.5)
        admit, reason = ctl.decide(
            request(arrival=0.0, deadline=1.0), 0.0, [5.0], queue_len=0
        )
        assert not admit and reason == SHED_PREDICTED_LATE
        assert ctl.n_shed_late == 1 and ctl.n_shed_full == 0

    def test_shed_slack_loosens_the_horizon(self):
        # Predicted finish 1.5 > deadline 1.0; slack 2.0 stretches the
        # horizon to 2.0 and admits.
        strict = AdmissionController(initial_service_estimate_s=0.5, shed_slack=1.0)
        loose = AdmissionController(initial_service_estimate_s=0.5, shed_slack=2.0)
        args = (request(arrival=0.0, deadline=1.0), 0.0, [1.0], 0)
        assert strict.decide(*args) == (False, SHED_PREDICTED_LATE)
        assert loose.decide(*args) == (True, "")

    def test_tight_slack_sheds_earlier(self):
        # Predicted finish 0.6 fits the deadline 1.0 but not 0.5 * 1.0.
        tight = AdmissionController(initial_service_estimate_s=0.3, shed_slack=0.5)
        admit, reason = tight.decide(
            request(arrival=0.0, deadline=1.0), 0.0, [0.3], queue_len=0
        )
        assert not admit and reason == SHED_PREDICTED_LATE


class TestPrediction:
    def test_fifo_replay_over_free_times(self):
        # Two idle workers, three queued requests at one estimated second
        # each: starts at 0, 0, 1 -> the new arrival starts at t=1.
        ctl = AdmissionController(initial_service_estimate_s=1.0)
        assert ctl.predicted_start_s(0.0, [0.0, 0.0], queue_len=3) == 1.0

    def test_idle_pool_starts_now(self):
        ctl = AdmissionController(initial_service_estimate_s=1.0)
        assert ctl.predicted_start_s(7.0, [0.0, 3.0], queue_len=0) == 7.0

    def test_busy_pool_starts_at_free_time(self):
        ctl = AdmissionController(initial_service_estimate_s=1.0)
        assert ctl.predicted_start_s(0.0, [2.5], queue_len=0) == 2.5

    def test_needs_free_times(self):
        ctl = AdmissionController(initial_service_estimate_s=1.0)
        with pytest.raises(ValueError, match="free time"):
            ctl.predicted_start_s(0.0, [], queue_len=0)


class TestEstimator:
    def test_ewma_update_is_exact(self):
        ctl = AdmissionController(initial_service_estimate_s=1.0)
        expected = 1.0
        for observed in (0.5, 2.0, 0.25):
            ctl.observe_service_time(observed)
            expected += SERVICE_TIME_ALPHA * (observed - expected)
            assert ctl.service_estimate_s == expected

    def test_negative_observation_rejected(self):
        ctl = AdmissionController(initial_service_estimate_s=1.0)
        with pytest.raises(ValueError, match="negative"):
            ctl.observe_service_time(-0.1)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(initial_service_estimate_s=0.0),
            dict(initial_service_estimate_s=math.nan),
            dict(initial_service_estimate_s=1.0, shed_slack=0.0),
            dict(initial_service_estimate_s=1.0, shed_slack=math.nan),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)
