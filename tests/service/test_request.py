"""Tests for the request stream and config checks both services share."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from repro.faults import ShardFaultPlan
from repro.service import ServiceConfig, ShardServiceConfig
from repro.service.request import open_loop_requests
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
