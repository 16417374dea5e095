"""Tests for the seeded shard-level fault plan."""

import pytest

from repro.faults import SHARD_OK, ShardFaultPlan


def draws(plan, keys):
    """The plan's decisions for a list of ``(query, partition, shard,
    attempt)`` keys, drawn in one call."""
    return plan.sub_requests(keys)


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="rate"):
            ShardFaultPlan(error_rate=-0.1)
        with pytest.raises(ValueError, match="rate"):
            ShardFaultPlan(straggler_rate=1.5)

    def test_combined_rate_cannot_exceed_one(self):
        with pytest.raises(ValueError, match="exceed"):
            ShardFaultPlan(error_rate=0.6, straggler_rate=0.6)

    def test_outage_needs_duration_and_horizon(self):
        with pytest.raises(ValueError, match="outage"):
            ShardFaultPlan(outage_rate=0.2)

    def test_null_plan(self):
        """The default plan injects nothing; one positive rate does."""
        null = ShardFaultPlan()
        assert set(draws(null, [(q, 0, 0, 0) for q in range(50)])) == {SHARD_OK}
        assert null.outage_window(0) is None
        faulty = ShardFaultPlan(error_rate=0.1)
        assert set(draws(faulty, [(q, 0, 0, 0) for q in range(50)])) != {SHARD_OK}

    def test_balanced_splits_rate(self):
        plan = ShardFaultPlan.balanced(0.2, seed=3, horizon_s=10.0)
        assert plan.error_rate == plan.straggler_rate == plan.outage_rate == 0.2
        assert plan.outage_duration_s > 0.0
        with pytest.raises(ValueError, match="rate"):
            ShardFaultPlan.balanced(0.6, seed=3, horizon_s=10.0)


class TestDraws:
    def test_sub_request_is_deterministic(self):
        plan = ShardFaultPlan(seed=9, error_rate=0.3, straggler_rate=0.3)
        keys = [(q, p, s, a)
                for q in range(4) for p in range(3)
                for s in range(3) for a in range(2)]
        first = draws(plan, keys)
        assert draws(plan, keys) == first
        # A key's decision does not depend on the list it is drawn in.
        assert draws(plan, keys[::-1]) == first[::-1]
        assert [draws(plan, [key])[0] for key in keys[:5]] == first[:5]

    def test_attempts_draw_independently(self):
        """A retry (same query/partition/shard, next attempt) must get a
        fresh draw — otherwise failover would be deterministic doom."""
        plan = ShardFaultPlan(seed=9, error_rate=0.5)
        outcomes = {fault.failed
                    for fault in draws(plan, [(0, 0, 0, a) for a in range(32)])}
        assert outcomes == {True, False}

    def test_rates_are_respected_in_the_aggregate(self):
        plan = ShardFaultPlan(seed=5, error_rate=0.25, straggler_rate=0.25)
        got = draws(plan, [(q, p, s, 0)
                           for q in range(50) for p in range(4) for s in range(4)])
        failed = sum(d.failed for d in got) / len(got)
        slow = sum(d.straggler for d in got) / len(got)
        assert failed == pytest.approx(0.25, abs=0.05)
        assert slow == pytest.approx(0.25, abs=0.05)

    def test_null_plan_is_always_clean(self):
        plan = ShardFaultPlan()
        assert draws(plan, [(1, 2, 3, 0)]) == [SHARD_OK]
        assert not (SHARD_OK.failed or SHARD_OK.straggler)

    def test_outage_window_lies_in_horizon(self):
        plan = ShardFaultPlan(
            seed=4, outage_rate=1.0, outage_duration_s=2.0, horizon_s=10.0
        )
        window = plan.outage_window(0)
        assert window is not None
        start, end = window
        assert 0.0 <= start < end <= 10.0
        assert end - start == pytest.approx(2.0)
        assert plan.shard_down(0, (start + end) / 2.0)
        assert not plan.shard_down(0, end)

    def test_zero_outage_rate_has_no_window(self):
        plan = ShardFaultPlan(seed=4)
        assert plan.outage_window(0) is None
        assert not plan.shard_down(0, 1.0)
