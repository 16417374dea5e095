"""Tests for the deterministic fault plan."""

import dataclasses

import pytest

from repro.faults import plan as plan_module
from repro.faults.plan import (
    FAILURE_KINDS,
    FAULT_CORRUPT,
    FAULT_NONE,
    FAULT_READ_ERROR,
    FAULT_SPIKE,
    FAULT_TRUNCATE,
    OK_OUTCOME,
    FaultPlan,
)
from repro.faults.injector import FaultInjector
from repro.simio.calibration import PAPER_2005_COST_MODEL
from reference_draws import chunk_outcome


class TestValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=-1)

    @pytest.mark.parametrize("field", ["read_error_rate", "corrupt_rate",
                                       "truncate_rate", "spike_rate"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_bad_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match="rates"):
            FaultPlan(**{field: value})

    def test_rates_must_fit_in_unit_interval(self):
        with pytest.raises(ValueError, match="exceed 1"):
            FaultPlan(read_error_rate=0.5, corrupt_rate=0.4, spike_rate=0.3)

    def test_balanced_rate_bounds(self):
        with pytest.raises(ValueError, match="0.5"):
            FaultPlan.balanced(0.6, seed=1)
        with pytest.raises(ValueError, match="0.5"):
            FaultPlan.balanced(-0.01, seed=1)

    def test_balanced_splits_rate(self):
        plan = FaultPlan.balanced(0.3, seed=7)
        assert plan.failure_rate == pytest.approx(0.3)
        assert plan.spike_rate == pytest.approx(0.3)
        assert plan.read_error_rate == plan.corrupt_rate == plan.truncate_rate


class TestNullPlan:
    def test_zero_rates_are_null(self):
        assert FaultPlan(seed=3).is_null
        assert FaultPlan.balanced(0.0, seed=3).is_null
        assert not FaultPlan.balanced(0.1, seed=3).is_null

    def test_null_plan_returns_shared_ok_outcome(self):
        plan = FaultPlan(seed=9)
        injector = FaultInjector.from_cost_model(plan, PAPER_2005_COST_MODEL)
        outcome = injector.outcome(4, 17, 2)
        assert outcome is OK_OUTCOME
        assert outcome.ok and outcome.kind == FAULT_NONE
        assert outcome.attempts == 1 and outcome.extra_io_s == 0.0


class TestDeterminism:
    def test_outcomes_independent_of_call_order(self):
        plan = FaultPlan.balanced(0.3, seed=42)
        keys = [(q, c) for q in range(20) for c in range(20)]
        forward = {k: chunk_outcome(plan, *k, attempt_io_s=0.02) for k in keys}
        backward = {
            k: chunk_outcome(plan, *k, attempt_io_s=0.02)
            for k in reversed(keys)
        }
        assert forward == backward

    def test_different_seeds_differ(self):
        keys = [(q, c) for q in range(15) for c in range(15)]
        a = FaultPlan.balanced(0.3, seed=1)
        b = FaultPlan.balanced(0.3, seed=2)
        assert [chunk_outcome(a, *k, attempt_io_s=0.02) for k in keys] != [
            chunk_outcome(b, *k, attempt_io_s=0.02) for k in keys
        ]

    def test_all_kinds_occur_at_plausible_frequency(self):
        plan = FaultPlan.balanced(0.3, seed=5)
        kinds = [
            chunk_outcome(plan, q, c, attempt_io_s=0.02).kind
            for q in range(40)
            for c in range(25)
        ]
        for kind in (FAULT_NONE, FAULT_SPIKE) + FAILURE_KINDS:
            assert kinds.count(kind) > 0, kind
        # Clean reads must dominate at rate 0.3.
        assert kinds.count(FAULT_NONE) > len(kinds) * 0.3


class TestOutcomeAccounting:
    def test_backoff_is_exponential(self):
        plan = FaultPlan()
        assert plan.backoff_delay_s(0) == pytest.approx(0.01)
        assert plan.backoff_delay_s(1) == pytest.approx(0.02)
        assert plan.backoff_delay_s(2) == pytest.approx(0.04)
        with pytest.raises(ValueError):
            plan.backoff_delay_s(-1)

    def test_unreadable_chunk_charges_all_attempts(self):
        plan = FaultPlan(seed=1)
        outcome = plan.unreadable_outcome(0.1)
        assert not outcome.ok
        assert outcome.kind == FAULT_CORRUPT
        assert outcome.attempts == 3
        assert outcome.retries == 2
        # 3 failed reads + backoffs before retries 0 and 1.
        assert outcome.extra_io_s == pytest.approx(0.3 + 0.01 + 0.02)

    def test_persistent_fault_exhausts_retries(self):
        # With corrupt_rate=1 every attempt fails and the first drawn
        # kind persists.
        plan = FaultPlan(seed=2, corrupt_rate=1.0)
        outcome = chunk_outcome(plan, 3, 4, attempt_io_s=0.1)
        assert not outcome.ok
        assert outcome.kind == FAULT_CORRUPT
        assert outcome.attempts == 3
        assert outcome.extra_io_s == pytest.approx(0.3 + 0.01 + 0.02)

    def test_truncate_is_persistent_too(self, monkeypatch):
        monkeypatch.setattr(plan_module, "MAX_RETRIES", 1)
        plan = FaultPlan(seed=2, truncate_rate=1.0)
        outcome = chunk_outcome(plan, 0, 0, attempt_io_s=0.05)
        assert not outcome.ok and outcome.kind == FAULT_TRUNCATE
        assert outcome.attempts == 2

    def test_spike_charges_spike_latency_only(self, monkeypatch):
        monkeypatch.setattr(plan_module, "SPIKE_S", 0.07)
        plan = FaultPlan(seed=4, spike_rate=1.0)
        outcome = chunk_outcome(plan, 1, 2, attempt_io_s=0.1)
        assert outcome.ok and outcome.spiked
        assert outcome.kind == FAULT_SPIKE
        assert outcome.attempts == 1
        assert outcome.extra_io_s == pytest.approx(0.07)

    def test_read_error_can_succeed_on_retry(self):
        # read_error_rate=0.5: over many keys some outcomes must be
        # successful retries (ok, attempts > 1) charging the failed
        # attempt plus backoff.
        plan = FaultPlan(seed=8, read_error_rate=0.5)
        retried = [
            o
            for q in range(30)
            for c in range(30)
            if (o := chunk_outcome(plan, q, c, attempt_io_s=0.1)).ok
            and o.attempts > 1
        ]
        assert retried
        for o in retried:
            assert o.kind == FAULT_READ_ERROR
            failed = o.attempts - 1
            want = failed * 0.1 + sum(
                plan.backoff_delay_s(r) for r in range(failed)
            )
            # A spike cannot occur here (spike_rate=0).
            assert o.extra_io_s == pytest.approx(want)

    def test_negative_attempt_cost_rejected(self):
        with pytest.raises(ValueError, match="attempt cost"):
            FaultPlan(seed=1).unreadable_outcome(-0.1)

    def test_plan_is_frozen(self):
        plan = FaultPlan(seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.seed = 2
