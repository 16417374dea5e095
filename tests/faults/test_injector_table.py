"""The injector's outcome table against the plan, access by access.

``FaultInjector.outcome_table(query, n_chunks)`` holds, per chunk,
``OK_OUTCOME`` where the query's first draw is clean and ``None`` where
``outcome()`` has to classify the access; the searcher reads it once per
query and logs no fault mark for an ``OK_OUTCOME`` visit.  The properties:

* over plans from null to "nothing is clean" and over access sequences
  that revisit queries, start new ones, grow a query's table and report
  unreadable chunks, every ``outcome()`` answer equals
  ``FaultPlan.chunk_outcome``, and a clean access is answered by
  ``OK_OUTCOME`` itself;
* a table entry is ``OK_OUTCOME`` exactly when the plan's answer is clean,
  else ``None``, and the table is a new list each time;
* ``BreakerGuardedInjector.outcome_table`` is the inner table (all
  ``OK_OUTCOME`` without one) with every chunk of a blocked region, the
  short last one included, overwritten by ``BREAKER_SKIP_OUTCOME``.

Planted twins — a clean test that forgets the spike rate, an overlay that
stops one chunk short, one that writes a whole region over the short last
one — must fail them.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_NONE, OK_OUTCOME, FaultPlan
from repro.service.breaker import (
    BREAKER_SKIP_OUTCOME,
    BreakerBoard,
    BreakerGuardedInjector,
)
from repro.service.simulator import REGION_SIZE
from repro.simio.calibration import PAPER_2005_COST_MODEL

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``).
EXAMPLES = settings().max_examples // settings.get_profile("tier1").max_examples

PLANS = [
    FaultPlan(seed=3),
    FaultPlan.balanced(0.0, seed=3),
    FaultPlan.balanced(1e-6, seed=3),
    FaultPlan.balanced(0.1, seed=3),
    FaultPlan.balanced(1 / 3, seed=2005),
    # Failures and spikes at 0.5 each: no first draw is clean.
    FaultPlan.balanced(0.5, seed=2005),
    FaultPlan(seed=11, spike_rate=0.4),
    FaultPlan(seed=11, read_error_rate=0.2, corrupt_rate=0.1, truncate_rate=0.1),
]

#: One query's consecutive accesses: ``(query, [(chunk, readable), ...])``.
runs = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.lists(
            st.tuples(st.integers(0, 400), st.sampled_from([True] * 4 + [False])),
            min_size=1,
            max_size=12,
        ),
    ),
    min_size=1,
    max_size=6,
)


def is_clean(outcome):
    return (
        outcome.ok
        and outcome.kind == FAULT_NONE
        and outcome.attempts == 1
        and outcome.extra_io_s == 0.0
        and not outcome.spiked
    )


def make_injector(plan):
    return FaultInjector.from_cost_model(plan, PAPER_2005_COST_MODEL)


def check_accesses(plan, accesses, page_count):
    """Every answer of one injector is the plan's; a clean readable access
    is answered by ``OK_OUTCOME`` and no other access is."""
    injector = make_injector(plan)
    io_s = injector.attempt_io_s(page_count)
    for query, visits in accesses:
        for chunk, readable in visits:
            got = injector.outcome(query, chunk, page_count, readable=readable)
            want = plan.chunk_outcome(query, chunk, io_s, readable=readable)
            assert got == want, (query, chunk, readable)
            assert (got is OK_OUTCOME) == (readable and is_clean(want)), (query, chunk)


def check_tables(plan, requests, page_count):
    """Each ``(query, n_chunks)`` table against the plan, entry by entry;
    a ``None`` entry's ``outcome()`` is the plan's answer."""
    injector = make_injector(plan)
    io_s = injector.attempt_io_s(page_count)
    for query, n_chunks in requests:
        table = injector.outcome_table(query, n_chunks)
        assert len(table) == n_chunks
        for chunk, decided in enumerate(table):
            want = plan.chunk_outcome(query, chunk, io_s)
            if is_clean(want):
                assert decided is OK_OUTCOME, (query, chunk)
            else:
                assert decided is None, (query, chunk)
                assert injector.outcome(query, chunk, page_count) == want
        # A new list: the guard writes over it.
        table[:] = [BREAKER_SKIP_OUTCOME] * n_chunks
        assert BREAKER_SKIP_OUTCOME not in injector.outcome_table(query, n_chunks)


class TestCleanTable:
    @given(plan=st.sampled_from(PLANS), accesses=runs, page_count=st.integers(1, 8))
    @example(
        # Query 0's table grows twice, query 1 draws its own, query 0 is
        # drawn anew on its return.
        plan=PLANS[4],
        accesses=[
            (0, [(0, True), (5, True), (300, True), (2, False), (301, True)]),
            (1, [(3, True), (899, True)]),
            (0, [(5, True), (900, True), (1200, True)]),
        ],
        page_count=3,
    )
    @settings(max_examples=40 * EXAMPLES, deadline=None)
    def test_every_access_is_the_plans(self, plan, accesses, page_count):
        check_accesses(plan, accesses, page_count)

    @given(
        plan=st.sampled_from(PLANS),
        requests=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 300)), min_size=1, max_size=5
        ),
        page_count=st.integers(1, 8),
    )
    @example(plan=PLANS[3], requests=[(0, 40), (0, 300), (1, 7), (0, 13)], page_count=2)
    @settings(max_examples=20 * EXAMPLES, deadline=None)
    def test_every_table_entry_is_the_plans(self, plan, requests, page_count):
        check_tables(plan, requests, page_count)

    def test_clean_rows_are_shared(self):
        plan = FaultPlan.balanced(0.1, seed=3)
        injector = make_injector(plan)
        clean = [
            got for got in (injector.outcome(0, chunk, 2) for chunk in range(200))
            if is_clean(got)
        ]
        assert len(clean) > 100
        assert all(got is OK_OUTCOME for got in clean)
        table = injector.outcome_table(0, 200)
        assert sum(entry is OK_OUTCOME for entry in table) == len(clean)

    def test_a_null_plans_table_is_all_ok(self):
        table = make_injector(FaultPlan(seed=3)).outcome_table(5, 17)
        assert len(table) == 17 and all(entry is OK_OUTCOME for entry in table)

    def test_a_twin_that_forgets_spikes_fails(self, monkeypatch):
        # Clean iff u >= failure_rate: a spiked first draw would pass as
        # clean and lose its SPIKE_S.
        monkeypatch.setattr(
            FaultPlan, "clean_edge", property(lambda plan: plan.failure_rate)
        )
        accesses = [(query, [(chunk, True) for chunk in range(60)]) for query in range(3)]
        for plan in (FaultPlan.balanced(1 / 3, seed=2005), FaultPlan(seed=11, spike_rate=0.4)):
            with pytest.raises(AssertionError):
                check_accesses(plan, accesses, 2)
            with pytest.raises(AssertionError):
                check_tables(plan, [(0, 60)], 2)


def check_overlay(inner, n_chunks, blocked, query=1):
    """The guarded table: the skip over every chunk of a blocked region,
    the inner table's entry (``OK_OUTCOME`` without one) elsewhere, and
    ``outcome()`` agreeing with every decided entry."""
    board = BreakerBoard(n_chunks=n_chunks, region_size=REGION_SIZE)
    guarded = BreakerGuardedInjector(inner, board, frozenset(blocked))
    table = guarded.outcome_table(query, n_chunks)
    plain = (
        [OK_OUTCOME] * n_chunks
        if inner is None
        else inner.outcome_table(query, n_chunks)
    )
    assert len(table) == n_chunks
    for chunk, decided in enumerate(table):
        if chunk // REGION_SIZE in blocked:
            assert decided is BREAKER_SKIP_OUTCOME, chunk
        else:
            assert decided is plain[chunk], chunk
        if decided is not None:
            assert guarded.outcome(query, chunk, 2) is decided


def blocked_sets(n_chunks):
    n_regions = -(-n_chunks // REGION_SIZE)
    return st.sets(st.integers(0, n_regions - 1))


class TestGuardOverlay:
    @pytest.mark.parametrize("n_chunks", [13, 61])
    @pytest.mark.parametrize("plan", [None, PLANS[0], PLANS[3], PLANS[5]])
    @given(data=st.data())
    @settings(max_examples=10 * EXAMPLES, deadline=None)
    def test_blocked_regions_are_skips_and_the_rest_is_inner(self, n_chunks, plan, data):
        blocked = data.draw(blocked_sets(n_chunks))
        inner = None if plan is None else make_injector(plan)
        check_overlay(inner, n_chunks, blocked)

    @pytest.mark.parametrize("n_chunks", [13, 61])
    def test_every_region_blocked_including_the_short_last(self, n_chunks):
        regions = range(-(-n_chunks // REGION_SIZE))
        check_overlay(make_injector(PLANS[3]), n_chunks, set(regions))
        check_overlay(None, n_chunks, {regions[-1]})

    def test_twins_that_miscount_a_region_fail(self, monkeypatch):
        def twin(stop_of):
            """The overlay with region ``[start, stop_of(start, n_chunks))``."""

            def outcome_table(self, query_id, n_chunks):
                table = self._inner.outcome_table(query_id, n_chunks)
                for region in self._blocked:
                    start = region * REGION_SIZE
                    stop = stop_of(start, n_chunks)
                    table[start:stop] = [BREAKER_SKIP_OUTCOME] * (stop - start)
                return table

            return outcome_table

        one_short = twin(lambda start, n: min(start + REGION_SIZE, n) - 1)
        full_last = twin(lambda start, n: start + REGION_SIZE)
        for planted in (one_short, full_last):
            monkeypatch.setattr(BreakerGuardedInjector, "outcome_table", planted)
            for n_chunks in (13, 61):
                last = (n_chunks - 1) // REGION_SIZE
                with pytest.raises(AssertionError):
                    check_overlay(make_injector(PLANS[3]), n_chunks, {last})
