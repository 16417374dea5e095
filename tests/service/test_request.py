"""Tests for the request stream and config checks both services share."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from repro.core.metrics import (
    OUTCOME_DEADLINE,
    OUTCOME_DEGRADED,
    OUTCOME_OK,
    OUTCOME_SHED,
)
from repro.core.neighbors import Neighbor
from repro.faults import ShardFaultPlan
from repro.service import ServiceConfig, ShardServiceConfig
from repro.service.request import (
    RequestRecord,
    open_loop_requests,
    request_outcome,
    request_quality,
    run_summary,
)
from repro.workloads.arrivals import poisson_arrival_times

QUERIES = np.arange(12, dtype=np.float32).reshape(4, 3)


class TestOpenLoopRequests:
    def test_stamps_schedule_and_deadline(self):
        requests = open_loop_requests(QUERIES, None, 20.0, seed=5, deadline_s=0.25)
        schedule = poisson_arrival_times(4, 20.0, 5)
        assert [r.index for r in requests] == [0, 1, 2, 3]
        assert [r.arrival_s for r in requests] == schedule.times_s.tolist()
        assert all(type(r.arrival_s) is float for r in requests)
        assert [r.deadline_s for r in requests] == [
            t + 0.25 for t in schedule.times_s.tolist()
        ]
        for request in requests:
            assert request.query.dtype == np.float64
            np.testing.assert_array_equal(request.query, QUERIES[request.index])

    @pytest.mark.parametrize(
        "queries, truth, match",
        [
            (np.zeros((0, 3)), None, "non-empty"),
            (np.zeros(3), None, "non-empty"),
            (np.zeros((2, 2, 2)), None, "non-empty"),
            (QUERIES, [None], "ground-truth"),
            (QUERIES, [[1]] * 5, "ground-truth"),
        ],
    )
    def test_rejects_malformed_input(self, queries, truth, match):
        with pytest.raises(ValueError, match=match):
            open_loop_requests(queries, truth, 20.0, seed=5, deadline_s=0.25)

    def test_accepts_matching_truth(self):
        truth = [[1], None, [2, 3], []]
        assert len(open_loop_requests(QUERIES, truth, 20.0, 5, 0.25)) == 4


@pytest.mark.parametrize("config_cls", [ServiceConfig, ShardServiceConfig])
@pytest.mark.parametrize(
    "override, match",
    [
        ({"deadline_s": 0.0}, "deadline"),
        ({"deadline_s": float("nan")}, "deadline"),
        ({"arrival_rate_qps": 0.0}, "arrival rate"),
        ({"k": 0}, "k must"),
    ],
)
def test_both_configs_share_traffic_and_breaker_checks(config_cls, override, match):
    config_cls()  # the defaults are valid
    with pytest.raises(ValueError, match=match):
        config_cls(**override)


def _nan_cases():
    """Every float field the two service configs and the shard fault plan
    keep, set to NaN, plus the balanced plan's horizon."""
    for cls in (ServiceConfig, ShardServiceConfig, ShardFaultPlan):
        for field in dataclasses.fields(cls):
            if field.type == "float":
                yield pytest.param(
                    functools.partial(cls, **{field.name: math.nan}),
                    id=f"{cls.__name__}.{field.name}",
                )
    yield pytest.param(
        functools.partial(ShardFaultPlan.balanced, 0.1, seed=1, horizon_s=math.nan),
        id="ShardFaultPlan.balanced.horizon_s",
    )


@pytest.mark.parametrize("build", _nan_cases())
def test_nan_is_rejected_by_every_float_field(build):
    """A NaN compares false both ways, so a range check written as
    ``x <= 0`` lets it through: a NaN p99 target freezes the budget
    controller, a NaN shed slack never sheds, a NaN horizon ends every
    outage window at NaN."""
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "deadline_hit, exact, outcome",
    [
        (True, True, OUTCOME_DEADLINE),
        (True, False, OUTCOME_DEADLINE),
        (False, True, OUTCOME_OK),
        (False, False, OUTCOME_DEGRADED),
    ],
)
def test_request_outcome_puts_the_deadline_first(deadline_hit, exact, outcome):
    assert request_outcome(deadline_hit, exact) == outcome


class TestRequestQuality:
    """The one per-request quality rule both services record (an empty
    index: ``test_simulator.py::TestRecallProxyGuards``)."""

    NEIGHBORS = [Neighbor(0.5, 7), Neighbor(0.9, 3), Neighbor(1.2, 11)]

    def test_truth_gives_precision_at_k(self):
        # Ground truth wins over exactness and coverage alike.
        assert request_quality(self.NEIGHBORS, [7, 11, 4, 5], False, 1, 10) == 0.5
        assert request_quality(self.NEIGHBORS, [4, 5], True, 10, 10) == 0.0

    def test_exact_answer_is_whole(self):
        assert request_quality(self.NEIGHBORS, None, True, 3, 10) == 1.0

    def test_partial_answer_is_its_coverage(self):
        assert request_quality(self.NEIGHBORS, None, False, 3, 12) == 0.25
        # Never above 1, whatever was rescanned.
        assert request_quality(self.NEIGHBORS, None, False, 30, 12) == 1.0


class TestRunSummary:
    def test_records_and_stats_in_request_order(self):
        records = [
            RequestRecord(0, OUTCOME_OK, "completed", 0.0, latency_s=0.2, recall=1.0),
            RequestRecord(1, OUTCOME_SHED, "queue-full", 0.1),
        ]
        done, stats = run_summary(records)
        assert done == records
        assert (stats.n_requests, stats.n_served) == (2, 1)
        assert (stats.shed_fraction, stats.mean_recall) == (0.5, 1.0)

    def test_every_request_must_be_recorded(self):
        with pytest.raises(AssertionError, match="every request"):
            run_summary([RequestRecord(0, OUTCOME_SHED, "queue-full", 0.0), None])
