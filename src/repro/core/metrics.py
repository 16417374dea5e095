"""Quality and cost metrics.

The paper's primary quality metric is "the precision within the top 30
images (when the number of returned images is fixed, recall and precision
are the same metric)" (section 5.4), logged after every processed chunk.
Figures 2-5 invert that log: for each target number of true neighbors
``N``, how many chunks (or seconds) did it take, on average over the
workload, until ``N`` of the eventual true neighbors were present?

This module computes those per-query numbers from
:class:`~repro.core.trace.SearchTrace` objects and aggregates them across a
workload.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence

import numpy as np

from .trace import SearchTrace

__all__ = [
    "precision_at_k",
    "QualityCurves",
    "curves_from_traces",
    "completion_stats",
    "CompletionStats",
    "robustness_stats",
    "RobustnessStats",
    "percentile",
    "percentiles",
    "OUTCOME_OK",
    "OUTCOME_DEGRADED",
    "OUTCOME_DEADLINE",
    "OUTCOME_SHED",
    "REQUEST_OUTCOMES",
    "SloStats",
    "slo_stats",
]


def precision_at_k(result_ids: Sequence[int], true_ids: Sequence[int]) -> float:
    """Fraction of the true top-k present in the result list.

    With a fixed result size this equals recall, as the paper notes.
    """
    truth = set(int(i) for i in true_ids)
    if not truth:
        raise ValueError("ground truth must not be empty")
    hits = sum(1 for i in result_ids if int(i) in truth)
    return hits / len(truth)


@dataclasses.dataclass
class QualityCurves:
    """Averaged quality-vs-cost curves for one (index, workload) pair.

    ``neighbors_axis[j] = j`` true neighbors; ``chunks_read[j]`` and
    ``elapsed_s[j]`` are the workload averages of the chunks / seconds
    needed until ``j`` true neighbors were present.  Index 0 is the cost of
    the query-start work (0 chunks; the index read + ranking time).

    These arrays are exactly the series plotted in figures 2-5.
    """

    neighbors_axis: np.ndarray
    chunks_read: np.ndarray
    elapsed_s: np.ndarray
    n_queries: int


def curves_from_traces(traces: Sequence[SearchTrace], k: int) -> QualityCurves:
    """Aggregate per-query traces into averaged figure-2/4 style curves.

    Every trace must come from a run-to-completion query (the paper always
    runs queries to conclusion so intermediate quality is measurable) with
    ground truth supplied, so ``chunks_to_find``/``time_to_find`` are
    finite for every ``N <= k``.
    """
    if not traces:
        raise ValueError("need at least one trace")
    axis = np.arange(k + 1)
    chunk_sums = np.zeros(k + 1, dtype=np.float64)
    time_sums = np.zeros(k + 1, dtype=np.float64)
    for trace in traces:
        for n in axis:
            chunks = trace.chunks_to_find(int(n))
            seconds = trace.time_to_find(int(n))
            if math.isinf(chunks) or math.isinf(seconds):
                raise ValueError(
                    f"trace never found {n} true neighbors; quality curves "
                    "require run-to-completion traces"
                )
            chunk_sums[n] += chunks
            time_sums[n] += seconds
    n_queries = len(traces)
    return QualityCurves(
        neighbors_axis=axis,
        chunks_read=chunk_sums / n_queries,
        elapsed_s=time_sums / n_queries,
        n_queries=n_queries,
    )


@dataclasses.dataclass(frozen=True)
class CompletionStats:
    """Run-to-completion cost summary for one (index, workload) pair.

    ``mean_elapsed_s`` is the Table 2 entry ("time to completion").
    """

    mean_elapsed_s: float
    mean_chunks_read: float
    mean_descriptors_scanned: float
    n_queries: int


def completion_stats(traces: Sequence[SearchTrace]) -> CompletionStats:
    """Averages over completed query traces (Table 2)."""
    if not traces:
        raise ValueError("need at least one trace")
    elapsed = np.asarray([t.final_elapsed_s for t in traces])
    chunks = np.asarray([t.chunks_read for t in traces])
    scanned = np.asarray([t.descriptors_scanned for t in traces])
    return CompletionStats(
        mean_elapsed_s=float(elapsed.mean()),
        mean_chunks_read=float(chunks.mean()),
        mean_descriptors_scanned=float(scanned.mean()),
        n_queries=len(traces),
    )


@dataclasses.dataclass(frozen=True)
class RobustnessStats:
    """Degraded-execution summary of one workload run under faults.

    Attributes
    ----------
    degraded_fraction:
        Fraction of queries that skipped at least one chunk — for these
        the exactness guarantee is void even when the proof would have
        fired.
    mean_coverage:
        Mean fraction of visited descriptors actually scanned (1.0 for
        a fault-free run); the structural bound on how much quality a
        degraded run can still deliver.
    mean_chunks_skipped, mean_retries:
        Per-query averages of abandoned chunks and of read attempts
        beyond the first (retries also count the attempts preceding an
        eventual success).
    mean_elapsed_s:
        Mean simulated completion time — this is where retry, backoff
        and spike latency surface, quantifying the *time* side of the
        fault trade-off alongside the quality side.
    """

    degraded_fraction: float
    mean_coverage: float
    mean_chunks_skipped: float
    mean_retries: float
    mean_elapsed_s: float
    n_queries: int


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in (0, 1]).

    Deterministic and interpolation-free: the returned value is always an
    element of ``values`` (the smallest element whose rank covers ``q``),
    so two runs that produced the same latencies report bit-identical
    p50/p95/p99 figures regardless of platform math libraries.
    """
    return percentiles(values, (q,))[0]


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Nearest-rank percentiles for several ``qs`` over one shared sort.

    The batch form of :func:`percentile`: every service sweep reports
    p50/p95/p99 of the same latency list, and sorting it once per report
    instead of once per quantile keeps the aggregation linearithmic in
    the number of requests rather than in requests x quantiles.  The
    semantics are identical — each returned value is an element of
    ``values`` — so ``percentiles(v, (q,)) == [percentile(v, q)]``.
    """
    if not values:
        raise ValueError("percentile of an empty sequence is undefined")
    if not qs:
        raise ValueError("need at least one quantile")
    for q in qs:
        if not 0.0 < float(q) <= 1.0 or math.isnan(float(q)):
            raise ValueError(f"q must lie in (0, 1], got {q}")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    return [ordered[max(1, math.ceil(float(q) * n)) - 1] for q in qs]


#: Request served and provably exact (completion proof fired or every
#: chunk was read cleanly).
OUTCOME_OK = "ok"
#: Request served but quality-degraded: the scan was trimmed by a chunk
#: budget, or chunks were skipped (faults / open breakers).
OUTCOME_DEGRADED = "degraded"
#: Request served but its deadline cut the scan short (the
#: ``DeadlineBudget`` rule fired, or the deadline expired while queued
#: and only a minimal scan ran).
OUTCOME_DEADLINE = "deadline"
#: Request rejected at admission (queue full or predicted to miss its
#: deadline); no search ran.
OUTCOME_SHED = "shed"

#: The complete per-request outcome vocabulary, in severity order.
REQUEST_OUTCOMES = (OUTCOME_OK, OUTCOME_DEGRADED, OUTCOME_DEADLINE, OUTCOME_SHED)


@dataclasses.dataclass(frozen=True)
class SloStats:
    """Service-level summary of one simulated-traffic run.

    Latency percentiles are computed with :func:`percentile`
    (nearest-rank) over *served* requests only — shed requests never
    received a result, so they have no latency; their cost appears in
    ``shed_fraction`` instead.  ``mean_recall`` averages the per-request
    recall proxy over served requests (NaN entries are skipped; NaN when
    nothing was served or no proxy was recorded).
    """

    n_requests: int
    n_served: int
    shed_fraction: float
    deadline_fraction: float
    degraded_fraction: float
    ok_fraction: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float
    mean_latency_s: float
    mean_recall: float


def slo_stats(
    outcomes: Sequence[str],
    latencies_s: Sequence[float],
    recalls: Optional[Sequence[float]] = None,
) -> SloStats:
    """Aggregate per-request outcomes into an :class:`SloStats` summary.

    Parameters
    ----------
    outcomes:
        One of :data:`REQUEST_OUTCOMES` per request.
    latencies_s:
        Arrival-to-completion seconds, parallel to ``outcomes``; entries
        for shed requests are ignored (conventionally NaN).
    recalls:
        Optional per-request recall proxy in [0, 1], parallel to
        ``outcomes``; NaN entries (and shed requests) are skipped.
    """
    if not outcomes:
        raise ValueError("need at least one request outcome")
    if len(latencies_s) != len(outcomes):
        raise ValueError(
            f"got {len(latencies_s)} latencies for {len(outcomes)} outcomes"
        )
    if recalls is not None and len(recalls) != len(outcomes):
        raise ValueError(
            f"got {len(recalls)} recalls for {len(outcomes)} outcomes"
        )
    unknown = sorted(set(outcomes) - set(REQUEST_OUTCOMES))
    if unknown:
        raise ValueError(f"unknown request outcomes: {unknown}")
    n = len(outcomes)
    served_lat = [
        float(lat)
        for outcome, lat in zip(outcomes, latencies_s)
        if outcome != OUTCOME_SHED
    ]
    n_served = len(served_lat)
    counts = {kind: 0 for kind in REQUEST_OUTCOMES}
    for outcome in outcomes:
        counts[outcome] += 1
    if n_served:
        p50, p95, p99 = percentiles(served_lat, (0.50, 0.95, 0.99))
        worst = max(served_lat)
        mean_latency = sum(served_lat) / n_served
    else:
        p50 = p95 = p99 = worst = mean_latency = math.nan
    mean_recall = math.nan
    if recalls is not None:
        usable = [
            float(r)
            for outcome, r in zip(outcomes, recalls)
            if outcome != OUTCOME_SHED and not math.isnan(float(r))
        ]
        if usable:
            mean_recall = sum(usable) / len(usable)
    return SloStats(
        n_requests=n,
        n_served=n_served,
        shed_fraction=counts[OUTCOME_SHED] / n,
        deadline_fraction=counts[OUTCOME_DEADLINE] / n,
        degraded_fraction=counts[OUTCOME_DEGRADED] / n,
        ok_fraction=counts[OUTCOME_OK] / n,
        p50_s=p50,
        p95_s=p95,
        p99_s=p99,
        max_s=worst,
        mean_latency_s=mean_latency,
        mean_recall=mean_recall,
    )


def robustness_stats(traces: Sequence[SearchTrace]) -> RobustnessStats:
    """Aggregate degraded-execution counters across a workload's traces."""
    if not traces:
        raise ValueError("need at least one trace")
    degraded = np.asarray([t.chunks_skipped > 0 for t in traces])
    coverage = np.asarray([t.coverage_fraction for t in traces])
    skipped = np.asarray([t.chunks_skipped for t in traces])
    retries = np.asarray([t.total_retries for t in traces])
    elapsed = np.asarray([t.final_elapsed_s for t in traces])
    return RobustnessStats(
        degraded_fraction=float(degraded.mean()),
        mean_coverage=float(coverage.mean()),
        mean_chunks_skipped=float(skipped.mean()),
        mean_retries=float(retries.mean()),
        mean_elapsed_s=float(elapsed.mean()),
        n_queries=len(traces),
    )
