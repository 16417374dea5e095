"""Tests for stop rules, and for the caps every rule declares: the chunk
count and elapsed time below which its ``check`` cannot fire, so the
searcher asks it only at a visit reaching one of them."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from descriptors import from_vectors
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.approx_rules import EpsilonApproximation
from repro.core.chunk_index import build_chunk_index
from repro.core.search import ChunkSearcher
from repro.core.stop_rules import (
    DeadlineBudget,
    ExactCompletion,
    FirstOf,
    MaxChunks,
    SearchProgress,
    StopRule,
    TimeBudget,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.simio.chunk_cache import LruChunkCache
from repro.storage.pages import DEFAULT_PAGE_BYTES

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``).
EXAMPLES = settings().max_examples // settings.get_profile("tier1").max_examples


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


def assert_one_budget_rule(time_rule, deadline_rule, snapshot):
    """Both budget rules over one budget: equal caps, both fire exactly
    once ``elapsed_s`` reaches the budget, reasons equal but the label."""
    budget = time_rule.budget_s
    assert time_rule.caps == deadline_rule.caps == (math.inf, budget)
    fired = time_rule.check(snapshot), deadline_rule.check(snapshot)
    expected = snapshot.elapsed_s >= budget
    assert [reason is not None for reason in fired] == [expected, expected]
    if expected:
        assert fired == (f"time-budget({budget:g}s)", f"deadline({budget:g}s)")


@st.composite
def budget_and_snapshot(draw):
    """A budget and a snapshot whose clock is at it, one ulp either side
    of it, or anywhere."""
    budget = draw(st.floats(1e-9, 1e3))
    elapsed = draw(
        st.sampled_from(
            [budget, math.nextafter(budget, 0.0), math.nextafter(budget, math.inf)]
        )
        | st.floats(0.0, 2e3)
    )
    return budget, progress(chunks_read=draw(st.integers(1, 50)), elapsed_s=elapsed)


class StrictTimeBudget(TimeBudget):
    """Planted: the shared check with ``>`` for ``>=``."""

    def check(self, progress):
        if progress.elapsed_s > self.budget_s:
            return f"{self.label}({self.budget_s:g}s)"
        return None


class StrictDeadlineBudget(StrictTimeBudget):
    label = "deadline"


class TestOneBudgetRule:
    """``DeadlineBudget`` is ``TimeBudget`` under the ``deadline`` label."""

    def test_deadline_budget_defines_no_rule_of_its_own(self):
        for name in ("__init__", "caps", "check", "__repr__"):
            assert name not in vars(DeadlineBudget), name

    @given(case=budget_and_snapshot())
    @settings(max_examples=200 * EXAMPLES, deadline=None)
    def test_same_caps_same_firing_point(self, case):
        budget, snapshot = case
        assert_one_budget_rule(TimeBudget(budget), DeadlineBudget(budget), snapshot)

    def test_a_strict_comparison_fails_the_property(self):
        @given(case=budget_and_snapshot())
        @settings(
            max_examples=50, deadline=None, database=None, phases=[Phase.generate]
        )
        def strict(case):
            budget, snapshot = case
            assert_one_budget_rule(
                StrictTimeBudget(budget), StrictDeadlineBudget(budget), snapshot
            )

        with pytest.raises(AssertionError):
            strict()


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


class TestCaps:
    def test_declared_caps(self):
        assert StopRule().caps == (0, 0.0)
        assert ExactCompletion().caps == (math.inf, math.inf)
        assert MaxChunks(4).caps == (4, math.inf)
        assert TimeBudget(0.5).caps == (math.inf, 0.5)
        assert DeadlineBudget(0.25).caps == (math.inf, 0.25)
        assert EpsilonApproximation(0.1, 5).caps == (0, 0.0)
        rule = FirstOf([MaxChunks(7), FirstOf([TimeBudget(0.5), DeadlineBudget(0.2)])])
        assert rule.caps == (7, 0.2)
        assert FirstOf([MaxChunks(3), EpsilonApproximation(0.0, 5)]).caps == (0, 0.0)


    def test_the_searcher_asks_only_at_the_caps(self):
        asked = []

        class Counted(MaxChunks):
            def check(self, progress):
                asked.append(progress.chunks_read)
                return super().check(progress)

        (result,) = caps_search(Counted(4), 1, False, False, False)
        assert result.stop_reason == "max-chunks(4)" and asked == [4]
        asked.clear()
        (result,) = caps_search(Uncapped(Counted(4)), 1, False, False, False)
        assert result.stop_reason == "max-chunks(4)" and asked == [1, 2, 3, 4]


class Uncapped(StopRule):
    """A rule behind a proxy that declares no caps: asked at every visit."""

    def __init__(self, rule):
        self.rule = rule

    def check(self, progress):
        return self.rule.check(progress)


class LateCap(MaxChunks):
    """Planted: fires at ``n_chunks`` but declares a cap two chunks later."""

    @property
    def caps(self):
        return (self.n_chunks + 2, math.inf)


_LEAVES = st.one_of(
    st.builds(MaxChunks, st.integers(1, 12)),
    st.builds(TimeBudget, st.floats(1e-3, 0.6)),
    st.builds(DeadlineBudget, st.floats(1e-3, 0.6)),
    st.just(ExactCompletion()),
    st.builds(EpsilonApproximation, st.floats(0.0, 1.0), st.integers(1, 6)),
)
#: Every shipped rule, and ``FirstOf``s of them nested up to three deep.
RULES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, min_size=1, max_size=3).map(FirstOf),
    max_leaves=6,
)


def below_caps(rule):
    """A strategy of snapshots below ``rule``'s caps, or ``None`` when no
    snapshot of a consulted search (one chunk read at least) is below."""
    chunk_cap, time_cap = rule.caps
    if chunk_cap <= 1 or time_cap <= 0.0:
        return None
    return st.builds(
        SearchProgress,
        chunks_read=st.integers(1, int(min(chunk_cap - 1, 10**6))),
        elapsed_s=st.floats(0.0, min(time_cap, 1e9), exclude_max=time_cap <= 1e9),
        neighbors_found=st.integers(0, 8),
        kth_distance=st.floats(0.0, 50.0) | st.just(math.inf),
        remaining_lower_bound=st.floats(0.0, 50.0) | st.just(math.inf),
    )


def assert_silent_below_caps(rule, data):
    snapshots = below_caps(rule)
    if snapshots is not None:
        progress = data.draw(snapshots)
        assert rule.check(progress) is None, (rule, progress)


@functools.lru_cache(maxsize=None)
def caps_index():
    rng = np.random.default_rng(41)
    centers = rng.uniform(-6.0, 6.0, size=(5, 6))
    vectors = centers[rng.integers(0, 5, 240)] + rng.standard_normal((240, 6))
    result = SRTreeChunker(leaf_capacity=7).form_chunks(from_vectors(vectors))
    return build_chunk_index(result.retained, result.chunk_set)


def caps_queries(cohort):
    """Members, perturbed (they complete early), and far points."""
    index = caps_index()
    rng = np.random.default_rng(43)
    members = index.read_chunk(0)[1].astype(np.float64)
    near = members[:cohort] + 0.05 * rng.standard_normal((cohort, 6))
    far = rng.uniform(-9.0, 9.0, size=(cohort, 6))
    return np.where(np.arange(cohort)[:, np.newaxis] % 2 == 0, far, near)


def caps_search(rule, cohort, prune, faulted, cached):
    model = PAPER_2005_COST_MODEL
    if cached:
        model = dataclasses.replace(
            model, chunk_cache=LruChunkCache(capacity_bytes=3 * DEFAULT_PAGE_BYTES)
        )
    faults = None
    if faulted:
        faults = FaultInjector.from_cost_model(
            FaultPlan.balanced(0.3, seed=5), PAPER_2005_COST_MODEL
        )
    searcher = ChunkSearcher(caps_index(), cost_model=model, prune=prune)
    return searcher.search_batch(
        caps_queries(cohort), k=5, stop_rule=rule, faults=faults
    ).results


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_same_search(rule, cohort, prune, faulted, cached):
    """The search under ``rule`` equals the one under ``Uncapped(rule)``:
    ids, distance bits, stop reason and every trace column."""
    got = caps_search(rule, cohort, prune, faulted, cached)
    want = caps_search(Uncapped(rule), cohort, prune, faulted, cached)
    for one, other in zip(got, want):
        assert one.neighbor_ids().tolist() == other.neighbor_ids().tolist()
        assert bits([n.distance for n in one.neighbors]) == bits(
            [n.distance for n in other.neighbors]
        )
        assert (one.stop_reason, one.completed, one.degraded, one.chunks_pruned) == (
            other.stop_reason, other.completed, other.degraded, other.chunks_pruned,
        )
        for column in ("chunk_ids", "n_descriptors", "neighbors_found", "true_matches"):
            assert getattr(one.trace, column) == getattr(other.trace, column), column
        assert bits(one.trace.elapsed) == bits(other.trace.elapsed)
        assert bits(one.trace.kth_distance) == bits(other.trace.kth_distance)
        assert one.trace.faults == other.trace.faults
        assert one.trace.start_elapsed_s == other.trace.start_elapsed_s


class TestCapsContract:
    @given(rule=RULES, data=st.data())
    @settings(max_examples=200 * EXAMPLES, deadline=None)
    def test_every_rule_is_silent_below_its_caps(self, rule, data):
        assert_silent_below_caps(rule, data)

    @given(
        rule=RULES,
        cohort=st.sampled_from([1, 3]),
        prune=st.booleans(),
        faulted=st.booleans(),
        cached=st.booleans(),
    )
    @example(rule=MaxChunks(4), cohort=1, prune=True, faulted=False, cached=False)
    @example(rule=TimeBudget(0.05), cohort=3, prune=False, faulted=True, cached=True)
    @example(
        rule=FirstOf([DeadlineBudget(0.08), MaxChunks(6)]), cohort=3, prune=True,
        faulted=True, cached=False,
    )
    @example(rule=ExactCompletion(), cohort=1, prune=False, faulted=False, cached=True)
    @settings(max_examples=30 * EXAMPLES, deadline=None)
    def test_caps_change_no_search(self, rule, cohort, prune, faulted, cached):
        assert_same_search(rule, cohort, prune, faulted, cached)

    def test_a_cap_above_the_firing_point_fails_both(self):
        rule = LateCap(2)
        assert rule.check(progress(chunks_read=2)) is not None

        @given(data=st.data())
        @settings(
            max_examples=50, deadline=None, database=None, phases=[Phase.generate]
        )
        def silent(data):
            assert_silent_below_caps(rule, data)

        with pytest.raises(AssertionError):
            silent()
        with pytest.raises(AssertionError):
            assert_same_search(rule, 1, True, False, False)
