"""The injector's outcome table against the plan, access by access.

``FaultInjector.outcome_table(query, n_chunks)`` holds, per chunk,
``OK_OUTCOME`` where the query's first kind code is "none" and ``None``
where ``outcome()`` has to classify the access; the searcher reads it once
per query and logs no fault mark for an ``OK_OUTCOME`` visit.  The
injector draws a window of queries at a time and answers ``outcome()``
from a memo keyed by (code sequence, attempt cost).  The properties:

* over plans from null to "nothing is clean" and over access sequences
  that revisit queries, jump backwards and across windows up to query
  ``2**32 - 1``, widen a query's table and report unreadable chunks, every
  ``outcome()`` answer equals the per-query draw classified by ``_kind``'s
  chain (``reference_draws``) and ``FaultPlan.chunk_outcome``, and a clean
  access is answered by ``OK_OUTCOME`` itself;
* every code sequence a plan can draw, at every page count, with each
  draw exactly on its interval's lower edge, is classified as the
  reference classifies it, by the plan and through the injector's memo;
* a table entry is ``OK_OUTCOME`` exactly when the plan's answer is clean,
  else ``None``, and the table is a new list each time;
* a negative query or chunk id is refused under every plan;
* ``BreakerGuardedInjector.outcome_table`` is the inner table (all
  ``OK_OUTCOME`` without one) with every chunk of a blocked region, the
  short last one included, overwritten by ``BREAKER_SKIP_OUTCOME``, which
  is also the guard's ``outcome()`` for a blocked chunk whose read failed.

Planted twins — a clean decision that forgets spikes, codes taken with
``side="left"``, a memo keyed without the attempt cost, an overlay that
stops one chunk short, one that writes a whole region over the short last
one — must fail them.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import injector as injector_module
from repro.faults import plan as plan_module
from repro.faults.injector import FaultInjector
from repro.faults.plan import ATTEMPT_KINDS, FAULT_NONE, FAULT_SPIKE, OK_OUTCOME, FaultPlan
from repro.service.breaker import (
    BREAKER_SKIP_OUTCOME,
    BreakerBoard,
    BreakerGuardedInjector,
)
from repro.service.simulator import REGION_SIZE
from repro.simio.calibration import PAPER_2005_COST_MODEL
import reference_draws

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

#: Queries near 0, far apart (across windows of every width), and at the
#: 32-bit edge.
query_ids = st.integers(0, 4) | st.integers(0, 50_000) | st.integers(2**32 - 40, 2**32 - 1)

#: One query's consecutive accesses: ``(query, [(chunk, readable), ...])``.
runs = st.lists(
    st.tuples(
        query_ids,
        st.lists(
            st.tuples(st.integers(0, 400), st.sampled_from([True] * 4 + [False])),
            min_size=1,
            max_size=12,
        ),
    ),
    min_size=1,
    max_size=6,
)

#: A window over 500 chunks, in queries.
WINDOW = injector_module._WINDOW_ROWS // 500


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


def oracle(plan, query, chunk, io_s, readable=True):
    """The per-query draw classified by ``_kind``'s chain, as before; equal
    to the per-key answer."""
    want = reference_draws.chunk_outcome(
        plan, query, chunk, io_s, readable=readable
    )
    if readable:
        budget = plan_module.MAX_RETRIES + 1
        draws = reference_draws.keyed_uniforms((plan.seed, 0, query), chunk, chunk + 1, budget)
        assert reference_draws.classify(plan, draws[0], io_s) == want, (query, chunk)
    return want


def check_accesses(plan, accesses, page_count):
    """Every answer of one injector is the plan's; a clean readable access
    is answered by ``OK_OUTCOME`` and no other access is."""
    injector = make_injector(plan)
    io_s = injector.attempt_io_s(page_count)
    for query, visits in accesses:
        for chunk, readable in visits:
            got = injector.outcome(query, chunk, page_count, readable=readable)
            want = oracle(plan, query, chunk, io_s, readable=readable)
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
            want = oracle(plan, query, chunk, io_s)
            if is_clean(want):
                assert decided is OK_OUTCOME, (query, chunk)
            else:
                assert decided is None, (query, chunk)
                assert injector.outcome(query, chunk, page_count) == want
        # A new list: the guard writes over it.
        table[:] = [BREAKER_SKIP_OUTCOME] * n_chunks
        assert BREAKER_SKIP_OUTCOME not in injector.outcome_table(query, n_chunks)


def edge_rows(plan):
    """A draw row for every code sequence ``plan`` can draw: each draw is
    the lower edge of its kind's interval (0.0 for the first kind), which
    ``_kind``'s ``u < edge`` chain puts in that kind and no other."""
    edges, edge = [], 0.0
    for rate in (plan.read_error_rate, plan.corrupt_rate, plan.truncate_rate, plan.spike_rate):
        edge += rate
        edges.append(edge)
    lower, upper = [0.0] + edges, edges + [1.0]
    drawable = [code for code in range(len(ATTEMPT_KINDS)) if lower[code] < upper[code]]
    budget = plan_module.MAX_RETRIES + 1
    return [
        [lower[code] for code in codes]
        for codes in itertools.product(drawable, repeat=budget)
    ]


def rig(monkeypatch, rows):
    """Make chunk ``c`` of every query draw ``rows[c % len(rows)]``, in the
    injector's windows and in the plan's one-key draws alike."""

    def chunk_draws(plan, queries, chunks):
        grid = [[rows[c % len(rows)] for c in chunks] for _ in queries]
        return np.array(grid, dtype=np.float64).reshape(len(queries), len(chunks), -1)

    def uniforms(plan, stream, query, chunk, n):
        return np.array(rows[chunk % len(rows)], dtype=np.float64)

    monkeypatch.setattr(FaultPlan, "chunk_draws", chunk_draws)
    monkeypatch.setattr(reference_draws, "uniforms", uniforms)


def check_sequences(plan, rows, page_counts):
    """One injector over every row at every page count in turn, against
    the reference classification of the row; each row's code sequence is
    the one ``_kind`` names."""
    injector = make_injector(plan)
    table = injector.outcome_table(7, len(rows))
    for page_count in page_counts:
        io_s = injector.attempt_io_s(page_count)
        for chunk, row in enumerate(rows):
            want = reference_draws.classify(plan, np.array(row), io_s)
            codes = [ATTEMPT_KINDS.index(reference_draws._kind(plan, u)) for u in row]
            assert plan.kind_codes(np.array(row)).tolist() == codes, row
            assert plan.classify(codes, io_s) == want, row
            assert reference_draws.chunk_outcome(plan, 7, chunk, io_s) == want, row
            got = injector.outcome(7, chunk, page_count)
            assert got == want, (row, page_count)
            assert (table[chunk] is OK_OUTCOME) == is_clean(want), row
            assert (got is OK_OUTCOME) == is_clean(want), row


class TestCleanTable:
    @given(plan=st.sampled_from(PLANS), accesses=runs, page_count=st.integers(1, 8))
    @example(
        # Query 0's table widens twice, query 1 draws its own, query 0 is
        # drawn anew on its return.
        plan=PLANS[4],
        accesses=[
            (0, [(0, True), (5, True), (300, True), (2, False), (301, True)]),
            (1, [(3, True), (899, True)]),
            (0, [(5, True), (900, True), (1200, True)]),
        ],
        page_count=3,
    )
    @example(
        # Across a 500-chunk window and back, to the 32-bit edge and back.
        plan=PLANS[3],
        accesses=[
            (0, [(499, True)]),
            (WINDOW + 1, [(3, True), (499, False)]),
            (WINDOW - 1, [(7, True)]),
            (2**32 - 1, [(0, True), (498, True)]),
            (2, [(499, True), (12, True)]),
        ],
        page_count=5,
    )
    @settings(max_examples=40 * EXAMPLES, deadline=None)
    def test_every_access_is_the_plans(self, plan, accesses, page_count):
        check_accesses(plan, accesses, page_count)

    @given(
        plan=st.sampled_from(PLANS),
        requests=st.lists(st.tuples(query_ids, st.integers(0, 300)), min_size=1, max_size=5),
        page_count=st.integers(1, 8),
    )
    @example(plan=PLANS[3], requests=[(0, 40), (0, 300), (1, 7), (0, 13)], page_count=2)
    @example(
        plan=PLANS[4],
        requests=[(0, 500), (WINDOW, 500), (WINDOW - 1, 500), (2**32 - 1, 500), (3, 20)],
        page_count=4,
    )
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

    @pytest.mark.parametrize("plan", PLANS)
    def test_negative_keys_are_refused_under_every_plan(self, plan):
        injector = make_injector(plan)
        for call in (
            lambda: injector.outcome_table(-1, 3),
            lambda: injector.outcome(-1, 0, 2),
            lambda: injector.outcome(0, -1, 2),
            lambda: injector.outcome(-1, 0, 2, readable=False),
        ):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                call()

    def test_a_twin_that_forgets_spikes_fails(self, monkeypatch):
        # Clean iff the first code is a spike or none: a spiked first draw
        # would pass as clean and lose its SPIKE_S.
        monkeypatch.setattr(
            injector_module, "_CLEAN_CODE", ATTEMPT_KINDS.index(FAULT_SPIKE)
        )
        accesses = [(query, [(chunk, True) for chunk in range(60)]) for query in range(3)]
        for plan in (FaultPlan.balanced(1 / 3, seed=2005), FaultPlan(seed=11, spike_rate=0.4)):
            with pytest.raises(AssertionError):
                check_accesses(plan, accesses, 2)
            with pytest.raises(AssertionError):
                check_tables(plan, [(0, 60)], 2)


class TestCodeSequences:
    @pytest.mark.parametrize("plan", PLANS[1:])
    def test_every_code_sequence_at_every_page_count(self, plan, monkeypatch):
        rows = edge_rows(plan)
        rig(monkeypatch, rows)
        check_sequences(plan, rows, range(1, 9))

    def test_a_twin_with_left_side_codes_fails(self, monkeypatch):
        # A draw exactly on an edge belongs to the kind above it.
        def left(plan, draws):
            edges, edge = [], 0.0
            for rate in (plan.read_error_rate, plan.corrupt_rate,
                         plan.truncate_rate, plan.spike_rate):
                edge += rate
                edges.append(edge)
            return np.searchsorted(edges, draws, side="left")

        plan = PLANS[3]
        rows = edge_rows(plan)
        rig(monkeypatch, rows)
        monkeypatch.setattr(FaultPlan, "kind_codes", left)
        with pytest.raises(AssertionError):
            check_sequences(plan, rows, [2])

    def test_a_twin_memo_without_the_attempt_cost_fails(self, monkeypatch):
        # The same code sequence at another page count costs another
        # amount per failed attempt.
        class CostBlind(dict):
            def get(self, key, default=None):
                return super().get(key[0], default)

            def __setitem__(self, key, value):
                super().__setitem__(key[0], value)

        init = FaultInjector.__init__

        def blind_init(self, plan, disk):
            init(self, plan, disk)
            self._memo = CostBlind()

        plan = PLANS[4]
        rows = edge_rows(plan)
        rig(monkeypatch, rows)
        check_sequences(plan, rows, [1, 6])
        monkeypatch.setattr(FaultInjector, "__init__", blind_init)
        with pytest.raises(AssertionError):
            check_sequences(plan, rows, [1, 6])


def check_overlay(inner, n_chunks, blocked, query=1):
    """The guarded table: the skip over every chunk of a blocked region,
    the inner table's entry (``OK_OUTCOME`` without one) elsewhere, and
    ``outcome()`` agreeing with every decided entry of an unblocked region
    and giving the skip for a blocked chunk whose read failed."""
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
            assert guarded.outcome(query, chunk, 2, readable=False) is decided
            continue
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
