"""Tests for the search-level injection surface, FaultInjector."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import MAX_RETRIES, FaultPlan
from repro.simio.calibration import PAPER_2005_COST_MODEL
from reference_draws import chunk_outcome


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
                assert injector.outcome(q, c, 2) == chunk_outcome(
                    plan, q, c, io_s
                )

    def test_unreadable_outcome_always_skips(self):
        injector = FaultInjector.from_cost_model(
            FaultPlan(seed=1), PAPER_2005_COST_MODEL
        )
        outcome = injector.outcome(0, 0, 1, readable=False)
        assert not outcome.ok
        assert outcome.attempts == MAX_RETRIES + 1

    def test_interleaved_keys_answer_like_the_plan(self):
        """The injector holds one query's table of draws: a key from another
        query draws a new table, a larger chunk id grows it, and every
        answer stays the plan's own."""
        plan = FaultPlan.balanced(0.45, seed=7)
        injector = FaultInjector.from_cost_model(plan, PAPER_2005_COST_MODEL)
        io_s = injector.attempt_io_s(3)
        keys = [(0, 5), (1, 5), (0, 7), (0, 900), (0, 3), (1, 901), (2, 0), (0, 5)]
        for query, chunk in keys:
            assert injector.outcome(query, chunk, 3) == chunk_outcome(
                plan, query, chunk, io_s
            )
        # A table that grew is the table drawn whole.
        for chunk in range(0, 1200, 37):
            assert injector.outcome(0, chunk, 3) == chunk_outcome(plan, 0, chunk, io_s)

    def test_negative_keys_raise_value_error(self):
        injector = FaultInjector.from_cost_model(
            FaultPlan.balanced(0.2, seed=1), PAPER_2005_COST_MODEL
        )
        with pytest.raises(ValueError):
            injector.outcome(-1, 0, 1)
        with pytest.raises(ValueError):
            injector.outcome(0, -1, 1)
        assert injector.outcome(0, 0, 1) == chunk_outcome(
            injector.plan, 0, 0, injector.attempt_io_s(1)
        )
