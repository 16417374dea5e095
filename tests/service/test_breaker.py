"""Tests for the per-chunk-region circuit breakers."""

import pytest

from repro.core.trace import TraceEvent
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_CORRUPT,
    FAULT_READ_ERROR,
    OK_OUTCOME,
    FaultPlan,
)
from repro.service import breaker as breaker_module
from repro.service.breaker import (
    BREAKER_OPEN,
    BREAKER_SKIP_OUTCOME,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BreakerBoard,
    BreakerGuardedInjector,
    RegionBreaker,
)
from repro.simio.calibration import PAPER_2005_COST_MODEL
from traces import trace_of as build_trace


@pytest.fixture(autouse=True)
def small_window(monkeypatch):
    """The state machine at a window of 4 and a threshold of 2, with the
    shipped 1 s cooldown and two probes; a test that needs other values
    patches them too."""
    monkeypatch.setattr(breaker_module, "BREAKER_WINDOW", 4)
    monkeypatch.setattr(breaker_module, "BREAKER_FAILURE_THRESHOLD", 2)


def event(chunk_id, *, skipped=False, fault="none", rank=1):
    return TraceEvent(
        chunk_id=chunk_id,
        rank=rank,
        elapsed_s=0.1,
        n_descriptors=10,
        neighbors_found=3,
        kth_distance=1.0,
        skipped=skipped,
        fault=fault,
    )


def trace_of(*events):
    return build_trace(events)


class TestRegionBreaker:
    def test_trips_at_threshold(self):
        b = RegionBreaker()
        b.record(False, 0.0)
        assert b.state == STATE_CLOSED
        b.record(False, 0.1)
        assert b.state == STATE_OPEN
        assert b.opened_at_s == 0.1
        assert b.open_count == 1

    def test_open_blocks_until_cooldown(self):
        b = RegionBreaker()
        b.record(False, 0.0)
        b.record(False, 0.0)
        assert not b.allow(0.5)
        assert b.state == STATE_OPEN
        assert b.allow(1.0)  # cooldown elapsed -> half-open probe
        assert b.state == STATE_HALF_OPEN

    def test_half_open_failure_retrips(self):
        b = RegionBreaker()
        b.record(False, 0.0)
        b.record(False, 0.0)
        assert b.allow(1.5)
        b.record(False, 1.5)
        assert b.state == STATE_OPEN
        assert b.opened_at_s == 1.5  # the cooldown restarts
        assert b.open_count == 2

    def test_half_open_probes_close(self):
        b = RegionBreaker()
        b.record(False, 0.0)
        b.record(False, 0.0)
        assert b.allow(1.0)
        b.record(True, 1.1)
        assert b.state == STATE_HALF_OPEN
        b.record(True, 1.2)
        assert b.state == STATE_CLOSED
        assert b.allow(1.3)

    def test_rolling_window_forgets_old_failures(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "BREAKER_WINDOW", 3)
        b = RegionBreaker()
        b.record(False, 0.0)
        b.record(True, 0.1)
        b.record(True, 0.2)
        b.record(True, 0.3)  # the failure has rolled out of the window
        b.record(False, 0.4)
        assert b.state == STATE_CLOSED

    def test_observations_while_open_are_stale(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "BREAKER_COOLDOWN_S", 10.0)
        b = RegionBreaker()
        b.record(False, 0.0)
        b.record(False, 0.0)
        b.record(True, 0.5)  # a pre-trip request completing late
        b.record(False, 0.6)
        assert b.state == STATE_OPEN
        assert b.open_count == 1


class TestBreakerBoard:
    def test_region_mapping(self):
        board = BreakerBoard(n_chunks=10, region_size=4)
        assert board.n_regions == 3
        assert board.region_of(0) == 0
        assert board.region_of(3) == 0
        assert board.region_of(4) == 1
        assert board.region_of(9) == 2
        with pytest.raises(ValueError, match="out of range"):
            board.region_of(10)
        with pytest.raises(ValueError, match="out of range"):
            board.region_of(-1)

    def test_observe_trace_trips_a_region(self):
        board = BreakerBoard(n_chunks=8, region_size=4)
        trace = trace_of(
            event(0, skipped=True, fault=FAULT_READ_ERROR, rank=1),
            event(1, skipped=True, fault=FAULT_CORRUPT, rank=2),
            event(4, rank=3),
        )
        board.observe_trace(trace, now=1.0)
        assert board.blocked_regions(1.0) == frozenset({0})
        assert board.total_opens == 1
        counts = board.state_counts()
        assert counts[STATE_OPEN] == 1
        assert counts[STATE_CLOSED] == 1

    def test_breaker_skips_are_not_observations(self):
        board = BreakerBoard(n_chunks=4, region_size=4)
        board.observe_trace(
            trace_of(
                event(0, skipped=True, fault=BREAKER_OPEN, rank=1),
                event(1, skipped=True, fault=BREAKER_OPEN, rank=2),
            ),
            now=0.0,
        )
        assert board.blocked_regions(0.0) == frozenset()
        assert board.total_opens == 0

    def test_retried_success_counts_as_success(self):
        board = BreakerBoard(n_chunks=4, region_size=4)
        # A processed (not skipped) chunk that saw a transient fault is a
        # delivery, not a failure.
        board.observe_trace(
            trace_of(
                event(0, skipped=False, fault=FAULT_READ_ERROR, rank=1),
                event(1, skipped=False, fault=FAULT_READ_ERROR, rank=2),
            ),
            now=0.0,
        )
        assert board.blocked_regions(0.0) == frozenset()

    def test_validation(self):
        with pytest.raises(ValueError, match="chunk"):
            BreakerBoard(n_chunks=0, region_size=4)
        with pytest.raises(ValueError, match="region"):
            BreakerBoard(n_chunks=4, region_size=0)


class TestBreakerGuardedInjector:
    def test_blocked_region_short_circuits(self):
        board = BreakerBoard(n_chunks=8, region_size=4)
        inner = FaultInjector.from_cost_model(
            FaultPlan(seed=1, read_error_rate=1.0), PAPER_2005_COST_MODEL
        )
        guarded = BreakerGuardedInjector(inner, board, frozenset({0}))
        outcome = guarded.outcome_table(0, 8)[2]
        assert outcome is BREAKER_SKIP_OUTCOME
        assert not outcome.ok
        assert outcome.kind == BREAKER_OPEN
        assert outcome.attempts == 0 and outcome.retries == 0
        assert outcome.extra_io_s == 0.0  # the whole point: no retry ladder

    def test_blocked_unreadable_chunk_is_skipped(self):
        """A chunk whose real read failed in a blocked region gets the
        breaker skip, not the inner injector's retry ladder."""
        board = BreakerBoard(n_chunks=8, region_size=4)
        inner = FaultInjector.from_cost_model(FaultPlan(seed=1), PAPER_2005_COST_MODEL)
        guarded = BreakerGuardedInjector(inner, board, frozenset({0}))
        for chunk in range(4):
            assert guarded.outcome(0, chunk, 3, readable=False) is BREAKER_SKIP_OUTCOME
        assert guarded.outcome(0, 5, 3, readable=False) == inner.outcome(
            0, 5, 3, readable=False
        )

    def test_unblocked_chunks_delegate(self):
        board = BreakerBoard(n_chunks=8, region_size=4)
        inner = FaultInjector.from_cost_model(
            FaultPlan(seed=1, read_error_rate=1.0), PAPER_2005_COST_MODEL
        )
        guarded = BreakerGuardedInjector(inner, board, frozenset({0}))
        assert guarded.outcome(0, 5, page_count=3) == inner.outcome(
            0, 5, 3
        )

    def test_no_inner_injector_passes_clean(self):
        board = BreakerBoard(n_chunks=8, region_size=4)
        guarded = BreakerGuardedInjector(None, board, frozenset({1}))
        assert guarded.outcome(0, 0, page_count=1) is OK_OUTCOME
        assert guarded.outcome_table(0, 8)[5] is BREAKER_SKIP_OUTCOME
        assert guarded.outcome(0, 5, 1, readable=False) is BREAKER_SKIP_OUTCOME


class TestTransitionCounts:
    def test_full_cycle_is_counted(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "BREAKER_PROBE_SUCCESSES", 1)
        b = RegionBreaker()
        b.record(False, now=0.0)
        b.record(False, now=0.1)          # closed -> open
        assert (b.open_count, b.half_open_count, b.close_count) == (1, 0, 0)
        assert b.allow(now=1.2)           # open -> half-open
        assert (b.open_count, b.half_open_count, b.close_count) == (1, 1, 0)
        b.record(True, now=1.3)           # half-open -> closed
        assert (b.open_count, b.half_open_count, b.close_count) == (1, 1, 1)

    def test_failed_probe_reopens_without_closing(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "BREAKER_PROBE_SUCCESSES", 1)
        b = RegionBreaker()
        b.record(False, now=0.0)
        b.record(False, now=0.1)
        assert b.allow(now=1.2)
        b.record(False, now=1.3)          # half-open -> open again
        assert (b.open_count, b.half_open_count, b.close_count) == (2, 1, 0)

    def test_board_aggregates_transitions(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "BREAKER_PROBE_SUCCESSES", 1)
        board = BreakerBoard(n_chunks=8, region_size=4)
        for _ in range(2):
            board.breakers[0].record(False, now=0.0)
        assert board.transition_counts() == {
            "opened": 1, "half_opened": 0, "closed": 0,
        }
        assert board.breakers[0].allow(now=1.5)
        board.breakers[0].record(True, now=1.6)
        assert board.transition_counts() == {
            "opened": 1, "half_opened": 1, "closed": 1,
        }
