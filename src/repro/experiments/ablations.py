"""Ablations over the design choices the paper calls out.

These are not paper figures; they probe the assumptions behind the paper's
conclusions.  DESIGN.md section 9 names the paper statement each one
tests.  Among them:

* :func:`run_overlap_ablation` — the uniform-chunks argument assumes I/O
  and CPU overlap; how much of SR's advantage survives a serial execution
  model?
* :func:`run_ranking_ablation` — the paper ranks chunks by centroid
  distance; does ranking by the lower bound ``d(centroid) - radius``
  change quality-per-chunk?
* :func:`run_stop_rule_ablation` — the paper's "second lesson": a time
  budget is a more natural stop rule than a chunk count.  Compare
  precision@30 under matched budgets.
* :func:`run_outlier_ablation` — BAG outlier removal vs the paper's
  norm-threshold alternative ("almost identical results").
* :func:`run_size_cap_ablation` — the conclusion's proposal (uniform
  size first, dissimilarity second) as one dial between both extremes:
  BAG's clusters cut to at most ``s`` times the mean size.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List

import numpy as np

from ..chunking.outliers import apply_outlier_rows, norm_fraction_outliers
from ..chunking.srtree_chunker import SRTreeChunker, cap_chunk_sizes
from ..core.chunk_index import build_chunk_index
from ..core.ground_truth import GroundTruthStore
from ..core.metrics import (
    completion_stats,
    curves_from_traces,
    percentiles,
    precision_at_k,
)
from ..core.search import RANK_BY_LOWER_BOUND, BatchSearchResult, ChunkSearcher
from ..core.stop_rules import MaxChunks, StopRule, TimeBudget
from ..simio.chunk_cache import LruChunkCache
from ..simio.pipeline import CostModel
from .config import K
from .data import ExperimentData
from .results import TableResult


def _run_batch(
    index,
    data: ExperimentData,
    queries,
    truth: "GroundTruthStore | None" = None,
    stop_rule: "StopRule | None" = None,
    cost_model: "CostModel | None" = None,
) -> BatchSearchResult:
    """One batched workload run — the shared engine call of the ablations."""
    searcher = ChunkSearcher(
        index, cost_model=cost_model or data.scale.cost_model
    )
    truth_lists = (
        [truth.get(i) for i in range(queries.shape[0])] if truth is not None else None
    )
    return searcher.search_batch(
        queries, k=K, stop_rule=stop_rule, true_neighbor_ids=truth_lists
    )

__all__ = [
    "run_overlap_ablation",
    "run_ranking_ablation",
    "run_stop_rule_ablation",
    "run_outlier_ablation",
    "run_cache_ablation",
    "run_size_cap_ablation",
    "run_approx_rules_ablation",
    "run_lessons_summary",
]


def _completion_traces_with(
    data: ExperimentData,
    family: str,
    size_class: str,
    workload_name: str,
    cost_model: CostModel,
    rank_by: str = "centroid",
):
    """Fresh completion traces under a non-default cost model or ranking."""
    built = data.built(family, size_class)
    searcher = ChunkSearcher(
        built.index, cost_model=cost_model, rank_by=rank_by
    )
    batch = searcher.search_batch(
        data.workloads[workload_name].queries,
        k=K,
        true_neighbor_ids=data.truth_lists(size_class, workload_name),
    )
    return batch.traces()


def run_overlap_ablation(data: ExperimentData) -> TableResult:
    """Time to find 25 of 30 neighbors (DQ), with and without I/O-CPU
    overlap, for the MEDIUM indexes."""
    serial_model = dataclasses.replace(data.scale.cost_model, overlap_io_cpu=False)
    rows = []
    for family in ("BAG", "SR"):
        overlap_traces = data.completion_traces(family, "MEDIUM", "DQ")
        serial_traces = _completion_traces_with(
            data, family, "MEDIUM", "DQ", serial_model
        )
        overlap_curves = curves_from_traces(overlap_traces, K)
        serial_curves = curves_from_traces(serial_traces, K)
        target = min(25, K)
        rows.append(
            [
                family,
                round(float(overlap_curves.elapsed_s[target]), 4),
                round(float(serial_curves.elapsed_s[target]), 4),
                round(float(completion_stats(overlap_traces).mean_elapsed_s), 4),
                round(float(completion_stats(serial_traces).mean_elapsed_s), 4),
            ]
        )
    return TableResult(
        experiment_id="ablation_overlap",
        title="I/O-CPU overlap ablation (MEDIUM indexes, DQ)",
        headers=[
            "Family",
            "t(25nn) overlap",
            "t(25nn) serial",
            "completion overlap",
            "completion serial",
        ],
        rows=rows,
        precision=4,
    )


def run_ranking_ablation(data: ExperimentData) -> TableResult:
    """Chunks needed for 25 of 30 neighbors under the two ranking rules."""
    rows = []
    for family in ("BAG", "SR"):
        centroid_traces = data.completion_traces(family, "MEDIUM", "DQ")
        bound_traces = _completion_traces_with(
            data, family, "MEDIUM", "DQ", data.scale.cost_model,
            rank_by=RANK_BY_LOWER_BOUND,
        )
        target = min(25, K)
        centroid_chunks = curves_from_traces(centroid_traces, K)
        bound_chunks = curves_from_traces(bound_traces, K)
        rows.append(
            [
                family,
                round(float(centroid_chunks.chunks_read[target]), 2),
                round(float(bound_chunks.chunks_read[target]), 2),
                round(float(completion_stats(centroid_traces).mean_chunks_read), 1),
                round(float(completion_stats(bound_traces).mean_chunks_read), 1),
            ]
        )
    return TableResult(
        experiment_id="ablation_ranking",
        title="Chunk-ranking ablation (MEDIUM indexes, DQ): centroid vs lower bound",
        headers=[
            "Family",
            "chunks(25nn) centroid",
            "chunks(25nn) bound",
            "completion chunks centroid",
            "completion chunks bound",
        ],
        rows=rows,
    )


def run_stop_rule_ablation(data: ExperimentData) -> TableResult:
    """Precision@30 under a chunk-count stop vs a time-budget stop.

    The budget pairs are matched: the time budget is the mean time the
    chunk-count rule spent, so any precision difference comes from how the
    rules distribute effort across queries — the paper's point that
    variably sized chunks make chunk counts a poor proxy for time.
    """
    n_chunks_budget = 10
    rows = []
    for family in ("BAG", "SR"):
        built = data.built(family, "MEDIUM")
        truth = data.ground_truth("MEDIUM", "DQ")
        workload = data.workloads["DQ"]

        chunk_batch = _run_batch(
            built.index, data, workload.queries,
            stop_rule=MaxChunks(n_chunks_budget),
        )
        chunk_precisions: List[float] = [
            precision_at_k(r.neighbor_ids(), truth.get(i))
            for i, r in enumerate(chunk_batch)
        ]

        time_budget = float(chunk_batch.elapsed_s().mean())
        time_batch = _run_batch(
            built.index, data, workload.queries,
            stop_rule=TimeBudget(time_budget),
        )
        time_precisions: List[float] = [
            precision_at_k(r.neighbor_ids(), truth.get(i))
            for i, r in enumerate(time_batch)
        ]

        rows.append(
            [
                family,
                n_chunks_budget,
                round(float(np.mean(chunk_precisions)), 3),
                round(time_budget, 4),
                round(float(np.mean(time_precisions)), 3),
            ]
        )
    return TableResult(
        experiment_id="ablation_stoprule",
        title="Stop-rule ablation (MEDIUM indexes, DQ): chunk count vs time budget",
        headers=[
            "Family",
            "chunk budget",
            "precision@k (chunks)",
            "time budget (s)",
            "precision@k (time)",
        ],
        rows=rows,
        precision=3,
    )


def run_outlier_ablation(data: ExperimentData) -> TableResult:
    """BAG outlier removal vs the norm-threshold scheme, end to end.

    Builds an SR index over (a) the BAG-retained SMALL collection and
    (b) the collection with the same *fraction* of largest-norm
    descriptors removed, then compares chunks needed for 25 of 30
    neighbors on DQ.  The paper reports the two gave "almost identical
    results".
    """
    bag_small = data.built("BAG", "SMALL").chunking
    leaf = max(2, int(round(bag_small.mean_chunk_size)))
    workload = data.workloads["DQ"]
    target = min(25, K)

    rows = []
    variants = {
        "BAG outliers": bag_small.retained,
        "norm threshold": apply_outlier_rows(
            data.collection,
            norm_fraction_outliers(data.collection, bag_small.outlier_fraction),
        ),
    }
    for name, retained in variants.items():
        chunking = SRTreeChunker(leaf).form_chunks(retained)
        index = build_chunk_index(
            chunking.retained, chunking.chunk_set, name=f"SR/{name}"
        )
        truth = GroundTruthStore.compute(retained, workload.queries, K)
        traces = _run_batch(index, data, workload.queries, truth=truth).traces()
        curves = curves_from_traces(traces, K)
        rows.append(
            [
                name,
                len(retained),
                round(float(curves.chunks_read[target]), 2),
                round(float(curves.elapsed_s[target]), 4),
                round(float(completion_stats(traces).mean_elapsed_s), 4),
            ]
        )
    return TableResult(
        experiment_id="ablation_outliers",
        title="Outlier-removal ablation (SR over SMALL class, DQ)",
        headers=[
            "Scheme",
            "retained",
            "chunks(25nn)",
            "t(25nn) s",
            "completion s",
        ],
        rows=rows,
        precision=4,
    )


def run_cache_ablation(data: ExperimentData) -> TableResult:
    """Buffer-cache effects: the paper's round-robin protocol, quantified.

    Runs the MEDIUM SR index's DQ workload under three protocols:

    * ``cold`` — no cache (the paper's intended measurement);
    * ``warm repeat`` — each query run twice back to back through a shared
      buffer cache, timing the second run (worst-case buffering bias);
    * ``round-robin`` — cache cleared between queries, modelling the
      eviction pressure of interleaving queries across six indexes.

    Expected: warm repeats look dramatically (and misleadingly) faster;
    round-robin matches cold — validating the paper's protocol.
    """
    built = data.built("SR", "MEDIUM")
    workload = data.workloads["DQ"]
    rows = []

    def buffer_cache() -> LruChunkCache:
        # Unbounded, and a hit is free: a buffer-cache hit involves no copy
        # the search would wait for.  A miss is the cold random read.
        return LruChunkCache(capacity_bytes=1 << 62, memcpy_bytes_per_s=math.inf)

    def mean_completion(cost_model, repeat=False, clear_between=False, cache=None):
        searcher = ChunkSearcher(built.index, cost_model=cost_model)
        times = []
        for query in workload.queries:
            if clear_between and cache is not None:
                cache.clear()
            if repeat:
                searcher.search(query, k=K)  # warm the cache
            times.append(searcher.search(query, k=K).elapsed_s)
        return float(np.mean(times))

    cold = mean_completion(data.scale.cost_model)
    rows.append(["cold (no cache)", round(cold, 4), "-"])

    warm_cache = buffer_cache()
    warm_model = dataclasses.replace(data.scale.cost_model, chunk_cache=warm_cache)
    warm = mean_completion(warm_model, repeat=True)
    rows.append(
        ["warm repeat", round(warm, 4), f"{warm_cache.hit_rate:.2f}"]
    )

    rr_cache = buffer_cache()
    rr_model = dataclasses.replace(data.scale.cost_model, chunk_cache=rr_cache)
    round_robin = mean_completion(
        rr_model, clear_between=True, cache=rr_cache
    )
    rows.append(
        ["round-robin (cleared)", round(round_robin, 4), f"{rr_cache.hit_rate:.2f}"]
    )

    return TableResult(
        experiment_id="ablation_cache",
        title="Buffer-cache ablation (SR/MEDIUM, DQ): completion time by protocol",
        headers=["Protocol", "mean completion s", "cache hit rate"],
        rows=rows,
        precision=4,
    )


#: The size-cap dial's points, most skewed first; ``inf`` is BAG itself.
SIZE_CAPS = (math.inf, 8.0, 4.0, 2.0, 1.5, 1.0)


def run_size_cap_ablation(data: ExperimentData) -> TableResult:
    """BAG's clusters under a size cap: the paper's axis as one dial.

    Section 7: "we should use a clustering algorithm which keeps uniform
    chunk size as the first priority, but attempts to achieve the smallest
    possible intra-chunk dissimilarity."  Per size class and workload, run
    to completion over the class's retained collection: BAG and SR (the
    prepared indexes), BAG's clusters cut by
    :func:`~repro.chunking.srtree_chunker.cap_chunk_sizes` at every
    :data:`SIZE_CAPS` factor ``s`` (``s = inf`` must reproduce the BAG
    row), and section 1.1's round-robin strawman at SR's chunk size.
    Besides the means, the per-query completion percentiles show the
    response-time variability that balanced chunks are said to cut.
    """
    from ..chunking.round_robin import RoundRobinChunker
    from .config import SIZE_CLASSES

    target = min(25, K)
    rows = []
    for size_class in SIZE_CLASSES:
        bag = data.built("BAG", size_class).chunking
        leaf = max(2, int(round(bag.mean_chunk_size)))
        built = {f"s={s:g}": cap_chunk_sizes(bag, s) for s in SIZE_CAPS}
        built["RR"] = RoundRobinChunker(
            n_chunks=max(1, len(bag.retained) // leaf)
        ).form_chunks(bag.retained)
        indexes = {
            name: build_chunk_index(chunking.retained, chunking.chunk_set, name=name)
            for name, chunking in built.items()
        }
        for workload_name in ("DQ", "SQ"):
            queries = data.workloads[workload_name].queries
            truth = data.ground_truth(size_class, workload_name)
            for name in ("BAG", *built, "SR"):
                if name in built:
                    sizes = built[name].chunk_set.sizes()
                    batch = _run_batch(indexes[name], data, queries, truth=truth)
                    traces = batch.traces()
                else:
                    sizes = data.built(name, size_class).chunking.chunk_set.sizes()
                    traces = data.completion_traces(name, size_class, workload_name)
                curves = curves_from_traces(traces, K)
                completions = [trace.final_elapsed_s for trace in traces]
                spread = percentiles(completions, (0.5, 0.95, 0.99, 1.0))
                rows.append(
                    [
                        size_class,
                        workload_name,
                        name,
                        sizes.size,
                        round(float(sizes.max() / sizes.mean()), 2),
                        round(float(sizes.std() / sizes.mean()), 2),
                        round(float(curves.chunks_read[target]), 2),
                        round(float(curves.elapsed_s[target]), 4),
                        round(float(np.mean(completions)), 4),
                        *(round(value, 4) for value in spread),
                    ]
                )
    return TableResult(
        experiment_id="ablation_size_cap",
        title="BAG's clusters under a size cap s x the class mean (run to completion)",
        headers=[
            "Class", "Workload", "Chunker", "chunks", "max/mean", "CV",
            "chunks(25nn)", "t(25nn) s", "completion s",
            "p50 s", "p95 s", "p99 s", "max s",
        ],
        rows=rows,
        precision=4,
    )


def run_approx_rules_ablation(data: ExperimentData) -> TableResult:
    """The error-bounded AC-NN stop rule vs fixed-effort rules.

    All rules run on the BAG/MEDIUM index (tight radii make the epsilon
    relaxation bite) over the DQ workload, reporting mean chunks, mean
    simulated time and precision@k.  Expected: epsilon trades a bounded,
    small precision loss for completion-time savings.
    """
    from ..core.approx_rules import EpsilonApproximation
    from ..core.stop_rules import ExactCompletion

    built = data.built("BAG", "MEDIUM")
    truth = data.ground_truth("MEDIUM", "DQ")
    workload = data.workloads["DQ"]

    rules = {
        "exact": ExactCompletion(),
        "epsilon=0.1": EpsilonApproximation(0.1, K),
        "epsilon=0.5": EpsilonApproximation(0.5, K),
        "max-chunks(10)": MaxChunks(10),
    }
    rows = []
    for name, rule in rules.items():
        batch = _run_batch(built.index, data, workload.queries, stop_rule=rule)
        precisions = [
            precision_at_k(r.neighbor_ids(), truth.get(i))
            for i, r in enumerate(batch)
        ]
        rows.append(
            [
                name,
                round(float(np.mean([r.chunks_read for r in batch])), 1),
                round(float(batch.elapsed_s().mean()), 4),
                round(float(np.mean(precisions)), 3),
            ]
        )
    return TableResult(
        experiment_id="ablation_approx_rules",
        title="Error-bounded vs fixed-effort stop rules (BAG/MEDIUM, DQ)",
        headers=["Rule", "mean chunks", "mean time s", "precision@k"],
        rows=rows,
        precision=4,
    )


def run_lessons_summary(data: ExperimentData) -> TableResult:
    """Section 5.7's first lesson, quantified per index.

    "Relaxing the requirements for precise answers may yield significant
    improvements in response time.  In our experiments, most of the 30
    nearest neighbors were found in the first 1-2 seconds, while
    guaranteeing a correct result took between 16 and 45 seconds."

    For every index and workload: the time to reach 90 % of the true
    neighbors (27 of 30), the time to provable completion, and their
    ratio — the headline payoff of approximate search.
    """
    from .config import SIZE_CLASSES
    from .data import FAMILIES

    near_target = max(1, int(round(0.9 * K)))
    rows = []
    for family in FAMILIES:
        for size_class in SIZE_CLASSES:
            for workload_name in ("DQ", "SQ"):
                traces = data.completion_traces(family, size_class, workload_name)
                curves = curves_from_traces(traces, K)
                t_near = float(curves.elapsed_s[near_target])
                t_done = float(completion_stats(traces).mean_elapsed_s)
                rows.append(
                    [
                        f"{family}/{size_class}",
                        workload_name,
                        round(t_near, 4),
                        round(t_done, 4),
                        round(t_done / t_near, 1) if t_near > 0 else float("inf"),
                    ]
                )
    return TableResult(
        experiment_id="lessons_summary",
        title=(
            f"Lesson 1 quantified: time to {near_target}/{K} true neighbors "
            "vs time to the exactness guarantee"
        ),
        headers=["Index", "Workload", "t(90% quality) s", "t(guarantee) s", "ratio"],
        rows=rows,
        precision=4,
    )
