"""The injector's clean rows against the plan, access by access.

``FaultInjector`` marks, once per query table, the rows whose first draw
is clean and answers them with one shared outcome instead of classifying
them.  The property: over plans from null to "nothing is clean" and over
access sequences that revisit queries, start new ones, grow a query's
table and report unreadable chunks, every answer equals
``FaultPlan.chunk_outcome``; a clean first draw is answered by the one
shared outcome, which is never ``OK_OUTCOME`` (the searcher logs every
outcome that is not ``OK_OUTCOME`` in ``trace.faults``).  A planted twin
whose clean test forgets the spike rate must fail the property.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import injector as injector_module
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_NONE, OK_OUTCOME, FaultPlan
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


def check_accesses(plan, accesses, page_count):
    """Every answer of one injector is the plan's; clean first draws get
    the shared clean outcome, and nothing but a null plan's gets
    ``OK_OUTCOME``."""
    injector = FaultInjector.from_cost_model(plan, PAPER_2005_COST_MODEL)
    io_s = injector.attempt_io_s(page_count)
    shared = injector_module._CLEAN_OUTCOME
    assert shared is not OK_OUTCOME and is_clean(shared)
    for query, visits in accesses:
        for chunk, readable in visits:
            got = injector.outcome(query, chunk, page_count, readable=readable)
            want = plan.chunk_outcome(query, chunk, io_s, readable=readable)
            assert got == want, (query, chunk, readable)
            if plan.is_null and readable:
                assert got is OK_OUTCOME
            elif readable and is_clean(want):
                assert got is shared, (query, chunk)
            else:
                assert got is not shared and got is not OK_OUTCOME


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

    def test_clean_rows_are_shared(self):
        plan = FaultPlan.balanced(0.1, seed=3)
        injector = FaultInjector.from_cost_model(plan, PAPER_2005_COST_MODEL)
        clean = [
            got for got in (injector.outcome(0, chunk, 2) for chunk in range(200))
            if is_clean(got)
        ]
        assert len(clean) > 100
        assert all(got is clean[0] for got in clean)

    def test_a_twin_that_forgets_spikes_fails(self, monkeypatch):
        # Clean iff u >= failure_rate: a spiked first draw would pass as
        # clean and lose its SPIKE_S.
        monkeypatch.setattr(
            FaultPlan, "clean_edge", property(lambda plan: plan.failure_rate)
        )
        accesses = [(query, [(chunk, True) for chunk in range(60)]) for query in range(3)]
        with pytest.raises(AssertionError):
            check_accesses(FaultPlan.balanced(1 / 3, seed=2005), accesses, 2)
        with pytest.raises(AssertionError):
            check_accesses(FaultPlan(seed=11, spike_rate=0.4), accesses, 2)
