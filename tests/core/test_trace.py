"""Tests for search traces and their derived curves."""

import math

import pytest

from repro.core.trace import SearchTrace, TraceEvent
from traces import append_event


def event(rank, elapsed, matches, chunk_id=None, n_desc=10):
    return TraceEvent(
        chunk_id=chunk_id if chunk_id is not None else rank - 1,
        rank=rank,
        elapsed_s=elapsed,
        n_descriptors=n_desc,
        neighbors_found=min(30, matches + 5),
        kth_distance=1.0,
        true_matches=matches,
    )


@pytest.fixture()
def trace():
    t = SearchTrace(start_elapsed_s=0.05)
    append_event(t, event(1, 0.10, 2))
    append_event(t, event(2, 0.20, 2))
    append_event(t, event(3, 0.35, 5))
    return t


class TestAppend:
    """The tests' trace builder (``tests/traces.py``) logs visits in rank
    order only."""

    def test_rank_order_enforced(self, trace):
        with pytest.raises(ValueError):
            append_event(trace, event(5, 0.5, 6))

    def test_first_event_rank_one(self):
        t = SearchTrace(start_elapsed_s=0.0)
        with pytest.raises(ValueError):
            append_event(t, event(2, 0.1, 1))


class TestCurves:
    def test_chunks_to_find(self, trace):
        assert trace.chunks_to_find(0) == 0.0
        assert trace.chunks_to_find(1) == 1.0
        assert trace.chunks_to_find(2) == 1.0
        assert trace.chunks_to_find(3) == 3.0
        assert trace.chunks_to_find(5) == 3.0
        assert math.isinf(trace.chunks_to_find(6))

    def test_time_to_find(self, trace):
        assert trace.time_to_find(0) == 0.05
        assert trace.time_to_find(2) == 0.10
        assert trace.time_to_find(5) == 0.35
        assert math.isinf(trace.time_to_find(10))

    def test_no_ground_truth_raises(self):
        t = SearchTrace(start_elapsed_s=0.0)
        append_event(
            t,
            TraceEvent(
                chunk_id=0, rank=1, elapsed_s=0.1, n_descriptors=5,
                neighbors_found=5, kth_distance=1.0,
            )
        )
        with pytest.raises(ValueError, match="ground-truth"):
            t.chunks_to_find(1)
        with pytest.raises(ValueError, match="ground-truth"):
            t.time_to_find(1)


class TestSummaries:
    def test_final_elapsed(self, trace):
        assert trace.final_elapsed_s == 0.35

    def test_final_elapsed_empty_is_start(self):
        t = SearchTrace(start_elapsed_s=0.07)
        assert t.final_elapsed_s == 0.07

    def test_chunks_read_and_scanned(self, trace):
        assert trace.chunks_read == 3
        assert trace.descriptors_scanned == 30

    def test_clean_trace_has_full_coverage(self, trace):
        assert trace.chunks_skipped == 0
        assert trace.descriptors_skipped == 0
        assert trace.coverage_fraction == 1.0
        assert trace.total_retries == 0


def skipped_event(rank, elapsed, n_desc=10, fault="corrupt", retries=2):
    return TraceEvent(
        chunk_id=rank - 1,
        rank=rank,
        elapsed_s=elapsed,
        n_descriptors=n_desc,
        neighbors_found=0,
        kth_distance=math.inf,
        skipped=True,
        fault=fault,
        retries=retries,
    )


class TestDegradedSummaries:
    @pytest.fixture()
    def degraded_trace(self):
        t = SearchTrace(start_elapsed_s=0.05)
        append_event(t, event(1, 0.10, 2))
        append_event(t, skipped_event(2, 0.25, n_desc=30))
        append_event(t, event(3, 0.35, 5))
        append_event(
            t, skipped_event(4, 0.50, n_desc=10, fault="read-error", retries=1)
        )
        return t

    def test_skip_counters(self, degraded_trace):
        assert degraded_trace.chunks_read == 2
        assert degraded_trace.chunks_skipped == 2
        assert degraded_trace.descriptors_scanned == 20
        assert degraded_trace.descriptors_skipped == 40
        assert degraded_trace.total_retries == 3

    def test_coverage_fraction(self, degraded_trace):
        assert degraded_trace.coverage_fraction == pytest.approx(20 / 60)

    def test_empty_trace_coverage_is_one(self):
        assert SearchTrace(start_elapsed_s=0.0).coverage_fraction == 1.0

    def test_default_events_are_unskipped(self, trace):
        for e in trace.events:
            assert not e.skipped
            assert e.fault == "none"
            assert e.retries == 0
