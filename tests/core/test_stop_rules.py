"""Tests for stop rules."""

import pytest

from repro.core.stop_rules import (
    DeadlineBudget,
    ExactCompletion,
    FirstOf,
    MaxChunks,
    SearchProgress,
    TimeBudget,
)


def progress(**kwargs):
    defaults = dict(
        chunks_read=1,
        elapsed_s=0.1,
        neighbors_found=10,
        kth_distance=1.0,
        remaining_lower_bound=0.5,
    )
    defaults.update(kwargs)
    return SearchProgress(**defaults)


class TestSearchProgress:
    def test_fields_in_order(self):
        assert SearchProgress._fields == (
            "chunks_read",
            "elapsed_s",
            "neighbors_found",
            "kth_distance",
            "remaining_lower_bound",
        )

    def test_keyword_build_equals_positional(self):
        snapshot = progress(chunks_read=4, kth_distance=2.5)
        assert snapshot == SearchProgress(4, 0.1, 10, 2.5, 0.5)
        assert snapshot.chunks_read == 4 and snapshot.kth_distance == 2.5

    def test_refuses_assignment(self):
        snapshot = progress()
        with pytest.raises(AttributeError):
            snapshot.chunks_read = 2  # type: ignore[misc]
        assert snapshot.chunks_read == 1


class TestExactCompletion:
    def test_never_stops(self):
        rule = ExactCompletion()
        assert rule.check(progress(chunks_read=10_000, elapsed_s=1e6)) is None


class TestMaxChunks:
    def test_fires_at_threshold(self):
        rule = MaxChunks(3)
        assert rule.check(progress(chunks_read=2)) is None
        assert rule.check(progress(chunks_read=3)) == "max-chunks(3)"
        assert rule.check(progress(chunks_read=4)) is not None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MaxChunks(0)


class TestTimeBudget:
    def test_fires_when_passed(self):
        rule = TimeBudget(1.0)
        assert rule.check(progress(elapsed_s=0.99)) is None
        assert rule.check(progress(elapsed_s=1.0)) is not None

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            TimeBudget(0.0)
        with pytest.raises(ValueError):
            TimeBudget(float("nan"))


class TestDeadlineBudget:
    def test_fires_when_remaining_budget_crossed(self):
        rule = DeadlineBudget(0.2)
        assert rule.check(progress(elapsed_s=0.19)) is None
        assert rule.check(progress(elapsed_s=0.2)) == "deadline(0.2s)"
        assert rule.check(progress(elapsed_s=1.0)) is not None

    def test_reason_is_distinct_from_time_budget(self):
        deadline = DeadlineBudget(0.1).check(progress(elapsed_s=0.5))
        budget = TimeBudget(0.1).check(progress(elapsed_s=0.5))
        assert deadline is not None and budget is not None
        assert deadline.startswith("deadline(")
        assert budget.startswith("time-budget(")
        assert deadline != budget

    def test_epsilon_budget_fires_after_first_chunk(self):
        # The expired-in-queue path: any real chunk completion crosses it.
        rule = DeadlineBudget(1e-9)
        assert rule.check(progress(chunks_read=1, elapsed_s=1e-6)) is not None

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            DeadlineBudget(0.0)
        with pytest.raises(ValueError):
            DeadlineBudget(-1.0)
        with pytest.raises(ValueError):
            DeadlineBudget(float("nan"))

    def test_composes_with_max_chunks(self):
        rule = FirstOf([DeadlineBudget(0.5), MaxChunks(3)])
        assert rule.check(progress(chunks_read=3, elapsed_s=0.1)) == "max-chunks(3)"
        assert rule.check(progress(chunks_read=1, elapsed_s=0.6)) == (
            "deadline(0.5s)"
        )

    def test_repr(self):
        assert "0.25" in repr(DeadlineBudget(0.25))


class TestFirstOf:
    def test_first_firing_rule_wins(self):
        rule = FirstOf([MaxChunks(5), TimeBudget(0.05)])
        assert rule.check(progress(chunks_read=1, elapsed_s=0.1)) == (
            "time-budget(0.05s)"
        )

    def test_none_when_no_rule_fires(self):
        rule = FirstOf([MaxChunks(5), TimeBudget(10.0)])
        assert rule.check(progress(chunks_read=1, elapsed_s=0.1)) is None

    def test_nested_flattening(self):
        rule = FirstOf([FirstOf([MaxChunks(1)]), TimeBudget(1.0)])
        assert len(rule.rules) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FirstOf([])
