"""Tests for the quality/cost metrics."""

import numpy as np
import pytest

from repro.core.metrics import (
    completion_stats,
    curves_from_traces,
    percentile,
    percentiles,
    precision_at_k,
    robustness_stats,
)
from repro.core.trace import SearchTrace, TraceEvent
from traces import append_event


def make_trace(start, steps):
    """steps: list of (elapsed, matches)."""
    t = SearchTrace(start_elapsed_s=start)
    for rank, (elapsed, matches) in enumerate(steps, start=1):
        append_event(
            t,
            TraceEvent(
                chunk_id=rank - 1,
                rank=rank,
                elapsed_s=elapsed,
                n_descriptors=4,
                neighbors_found=matches,
                kth_distance=1.0,
                true_matches=matches,
            )
        )
    return t


class TestPrecision:
    def test_full_match(self):
        assert precision_at_k([1, 2, 3], [1, 2, 3]) == 1.0

    def test_partial(self):
        assert precision_at_k([1, 9, 8], [1, 2, 3]) == pytest.approx(1 / 3)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k([1], [])

    def test_equals_recall_for_fixed_size(self):
        """Paper: with fixed result size, precision == recall."""
        result, truth = [1, 2, 9], [1, 2, 3]
        precision = precision_at_k(result, truth)
        recall = len(set(result) & set(truth)) / len(truth)
        assert precision == recall


class TestCurves:
    def test_averaging_over_traces(self):
        t1 = make_trace(0.1, [(0.2, 1), (0.3, 2)])
        t2 = make_trace(0.1, [(0.4, 2), (0.5, 2)])
        curves = curves_from_traces([t1, t2], k=2)
        assert curves.n_queries == 2
        # N=0: both pay start cost.
        assert curves.elapsed_s[0] == pytest.approx(0.1)
        assert curves.chunks_read[0] == 0.0
        # N=1: t1 after chunk 1 (0.2), t2 after chunk 1 (0.4).
        assert curves.elapsed_s[1] == pytest.approx(0.3)
        assert curves.chunks_read[1] == pytest.approx(1.0)
        # N=2: t1 after chunk 2 (0.3), t2 after chunk 1 (0.4).
        assert curves.elapsed_s[2] == pytest.approx(0.35)
        assert curves.chunks_read[2] == pytest.approx(1.5)

    def test_incomplete_trace_rejected(self):
        t = make_trace(0.0, [(0.1, 1)])
        with pytest.raises(ValueError, match="never found"):
            curves_from_traces([t], k=3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            curves_from_traces([], k=2)

    def test_curves_monotone(self):
        t = make_trace(0.0, [(0.1, 0), (0.2, 1), (0.3, 3)])
        curves = curves_from_traces([t], k=3)
        assert np.all(np.diff(curves.chunks_read) >= 0)
        assert np.all(np.diff(curves.elapsed_s) >= 0)


class TestCompletionStats:
    def test_means(self):
        t1 = make_trace(0.0, [(0.2, 1)])
        t2 = make_trace(0.0, [(0.1, 1), (0.4, 1), (0.6, 1)])
        stats = completion_stats([t1, t2])
        assert stats.mean_elapsed_s == pytest.approx(0.4)
        assert stats.mean_chunks_read == pytest.approx(2.0)
        assert stats.mean_descriptors_scanned == pytest.approx(8.0)
        assert stats.n_queries == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            completion_stats([])


def make_degraded_trace(start, steps):
    """steps: list of (elapsed, skipped) over 4-descriptor chunks."""
    t = SearchTrace(start_elapsed_s=start)
    for rank, (elapsed, skipped) in enumerate(steps, start=1):
        append_event(
            t,
            TraceEvent(
                chunk_id=rank - 1,
                rank=rank,
                elapsed_s=elapsed,
                n_descriptors=4,
                neighbors_found=0 if skipped else 2,
                kth_distance=1.0,
                skipped=skipped,
                fault="corrupt" if skipped else "none",
                retries=2 if skipped else 0,
            )
        )
    return t


class TestRobustnessStats:
    def test_aggregates(self):
        clean = make_degraded_trace(0.0, [(0.1, False), (0.2, False)])
        lossy = make_degraded_trace(0.0, [(0.1, False), (0.3, True)])
        stats = robustness_stats([clean, lossy])
        assert stats.degraded_fraction == pytest.approx(0.5)
        assert stats.mean_coverage == pytest.approx((1.0 + 0.5) / 2)
        assert stats.mean_chunks_skipped == pytest.approx(0.5)
        assert stats.mean_retries == pytest.approx(1.0)
        assert stats.mean_elapsed_s == pytest.approx(0.25)
        assert stats.n_queries == 2

    def test_fault_free_run_is_clean(self):
        traces = [make_trace(0.0, [(0.2, 1)])]
        stats = robustness_stats(traces)
        assert stats.degraded_fraction == 0.0
        assert stats.mean_coverage == 1.0
        assert stats.mean_chunks_skipped == 0.0
        assert stats.mean_retries == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            robustness_stats([])


class TestPercentiles:
    def test_nearest_rank_semantics(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentiles(values, (0.25, 0.5, 0.75, 1.0)) == [
            10.0, 20.0, 30.0, 40.0,
        ]
        # ceil(0.26 * 4) = 2 -> second order statistic.
        assert percentiles(values, (0.26,)) == [20.0]

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        values = rng.random(31).tolist()
        qs = (0.5, 0.9, 0.95, 0.99)
        assert percentiles(values, qs) == [percentile(values, q) for q in qs]

    def test_order_is_independent_of_input(self):
        values = [3.0, 1.0, 2.0]
        assert percentiles(values, (0.99, 0.01)) == [3.0, 1.0]
        assert percentiles(list(reversed(values)), (0.99, 0.01)) == [3.0, 1.0]

    def test_single_value(self):
        assert percentiles([42.0], (0.5, 0.99)) == [42.0, 42.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            percentiles([], (0.5,))
        with pytest.raises(ValueError, match="q must lie"):
            percentiles([1.0], (0.0,))
        with pytest.raises(ValueError, match="q must lie"):
            percentiles([1.0], (1.1,))
