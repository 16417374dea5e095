"""Tests for the adaptive degradation (chunk budget) controller."""

import math

import pytest

from repro.service.controller import (
    ADJUST_EVERY,
    GROW_STEP,
    HEADROOM,
    LATENCY_WINDOW,
    SHRINK_FACTOR,
    AdaptiveBudgetController,
)


def controller(**overrides):
    defaults = dict(
        initial_budget=0,
        n_chunks=100,
        min_budget=1,
        target_p99_s=1.0,
    )
    defaults.update(overrides)
    return AdaptiveBudgetController(**defaults)


def effective(ctl):
    """The budget in chunks, the whole index when unbounded."""
    return ctl.budget or ctl.n_chunks


def feed(ctl, latency, n):
    for _ in range(n):
        ctl.observe(latency)


class TestBudgetSemantics:
    def test_zero_initial_budget_means_whole_index(self):
        ctl = controller(initial_budget=0)
        assert ctl.budget == 0
        assert effective(ctl) == 100

    def test_bounded_initial_budget(self):
        ctl = controller(initial_budget=30)
        assert ctl.budget == 30
        assert effective(ctl) == 30

    def test_history_starts_with_initial_setting(self):
        assert controller().history == [(0, 0)]
        assert controller(initial_budget=30).history == [(0, 30)]


class TestShrink:
    def test_high_p99_shrinks_multiplicatively(self):
        ctl = controller()
        feed(ctl, 2.0, ADJUST_EVERY)  # p99 = 2.0 > target 1.0
        assert effective(ctl) == int(100 * SHRINK_FACTOR) == 70
        assert ctl.n_shrinks == 1
        assert ctl.history[-1] == (ADJUST_EVERY, 70)

    def test_shrink_always_drops_at_least_one_chunk(self):
        # The multiplicative step never rounds to a no-op, at any budget.
        for budget in range(2, 101):
            ctl = controller(initial_budget=budget)
            feed(ctl, 2.0, ADJUST_EVERY)
            assert effective(ctl) <= budget - 1
            assert ctl.n_shrinks == 1

    def test_shrink_respects_floor(self):
        ctl = controller(initial_budget=2, min_budget=2)
        feed(ctl, 2.0, 2 * ADJUST_EVERY)
        assert effective(ctl) == 2
        assert ctl.n_shrinks == 0  # clamped: never moved, never counted

    def test_repeated_overload_reaches_floor(self):
        ctl = controller()
        feed(ctl, 2.0, 400)
        assert effective(ctl) == 1
        assert ctl.budget == 1


class TestGrowAndDeadBand:
    def test_low_p99_grows_additively(self):
        ctl = controller(initial_budget=30)
        feed(ctl, 0.1, ADJUST_EVERY)  # p99 = 0.1 <= HEADROOM * 1.0
        assert effective(ctl) == 30 + GROW_STEP
        assert ctl.n_grows == 1

    def test_dead_band_holds(self):
        # Between HEADROOM * target and target: no change.
        ctl = controller(initial_budget=30)
        feed(ctl, (HEADROOM + 1.0) / 2, 2 * LATENCY_WINDOW)
        assert effective(ctl) == 30
        assert ctl.n_shrinks == 0 and ctl.n_grows == 0
        assert ctl.history == [(0, 30)]

    def test_growth_caps_at_whole_index(self):
        ctl = controller(initial_budget=100 - GROW_STEP)
        feed(ctl, 0.1, 2 * ADJUST_EVERY)
        assert effective(ctl) == 100
        assert ctl.budget == 0  # reported as unbounded again
        assert ctl.n_grows == 1  # the second decision had no room to grow

    def test_recovery_after_overload(self):
        ctl = controller()
        feed(ctl, 2.0, 2 * ADJUST_EVERY)
        assert effective(ctl) == 49  # 100 -> 70 -> 49
        # Until the overload ages out of the window, p99 still sees it and
        # the budget keeps shrinking; then every decision grows it.
        feed(ctl, 0.1, LATENCY_WINDOW)
        assert ctl.n_grows == 1
        low = effective(ctl)
        feed(ctl, 0.1, 2 * ADJUST_EVERY)
        assert effective(ctl) == low + 2 * GROW_STEP
        assert ctl.n_grows == 3


class TestObservation:
    def test_adjusts_only_every_nth_completion(self):
        ctl = controller()
        feed(ctl, 2.0, ADJUST_EVERY - 1)
        assert effective(ctl) == 100  # not yet
        ctl.observe(2.0)
        assert effective(ctl) == 70

    def test_window_p99_nearest_rank(self):
        ctl = controller()
        for latency in (0.1, 0.2, 0.3):
            ctl.observe(latency)
        assert ctl.window_p99_s() == 0.3

    def test_empty_window_p99_is_nan(self):
        assert math.isnan(controller().window_p99_s())

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="latency"):
            controller().observe(-0.1)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_chunks=0),
            dict(initial_budget=-1),
            dict(initial_budget=101),
            dict(min_budget=0),
            dict(min_budget=101),
            dict(target_p99_s=0.0),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            controller(**kwargs)
