"""Tests for the search-level injection surface, FaultInjector."""

from repro.faults.injector import FaultInjector
from repro.faults.plan import MAX_RETRIES, FaultPlan
from repro.simio.calibration import PAPER_2005_COST_MODEL


class TestFaultInjector:
    def test_from_cost_model_binds_disk(self):
        plan = FaultPlan.balanced(0.2, seed=1)
        injector = FaultInjector.from_cost_model(plan, PAPER_2005_COST_MODEL)
        assert injector.disk is PAPER_2005_COST_MODEL.disk
        assert not injector.is_null
        assert FaultInjector.from_cost_model(
            FaultPlan(seed=1), PAPER_2005_COST_MODEL
        ).is_null

    def test_attempt_cost_is_uncached_random_read(self):
        injector = FaultInjector.from_cost_model(
            FaultPlan.balanced(0.2, seed=1), PAPER_2005_COST_MODEL
        )
        for pages in (1, 3, 8):
            want = PAPER_2005_COST_MODEL.disk.random_read_time_s(pages)
            assert injector.attempt_io_s(pages) == want
            # Memoised: same value the second time.
            assert injector.attempt_io_s(pages) == want

    def test_outcome_delegates_to_plan(self):
        plan = FaultPlan.balanced(0.3, seed=11)
        injector = FaultInjector.from_cost_model(plan, PAPER_2005_COST_MODEL)
        io_s = injector.attempt_io_s(2)
        for q in range(10):
            for c in range(10):
                assert injector.outcome(q, c, 2) == plan.chunk_outcome(
                    q, c, io_s
                )

    def test_unreadable_outcome_always_skips(self):
        injector = FaultInjector.from_cost_model(
            FaultPlan(seed=1), PAPER_2005_COST_MODEL
        )
        outcome = injector.outcome(0, 0, 1, readable=False)
        assert not outcome.ok
        assert outcome.attempts == MAX_RETRIES + 1
