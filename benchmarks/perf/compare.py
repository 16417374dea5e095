#!/usr/bin/env python3
"""Compare two baseline files written by ``record.py``.

    python3 benchmarks/perf/compare.py PARENT.json CHANGE.json

One row per (workload, metric), never a combined score.

**Gated timings and memory** (the ``end_to_end`` list of
``BENCHMARK.json``, from the untraced runs of every seed) get a verdict
from the bound the file fixes for the metric:

``regressed``   the change's median is worse than the parent's by more
                than the bound;
``unresolved``  the run-to-run spread of either side exceeds the bound,
                so no verdict is possible, unless every run of the change
                reads better than every run of the parent (``improved``);
``improved``    the change's median is better by more than the parent's
                own quartile spread;
``unchanged``   anything else.

**Bound-0 metrics** (:data:`BOUND_ZERO`: they repeat exactly, so any
worsening is real) are read from the traced runs, which every set of
every file makes at the same seed: ``regressed`` when the change's value
is worse at all, ``improved`` when better, ``unchanged`` when equal.
``failed_fraction`` is taken over every run of the file instead.

**Counts** (:data:`EXACT_COUNTS`), like the bound-0 metrics, must be
bit-identical between the sets of one file: one that is not has stopped
being a count, and is reported as ``not repeatable``.  A count that differs between parent and
change is printed as ``changed``.  That is information, not a verdict: a
better pruning rule moves ``search.chunks_pruned_fraction`` on purpose,
and the issue that does so names the count beforehand.

Exits non-zero on any ``regressed`` or ``not repeatable`` row.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import env, stats  # noqa: E402

#: Deterministic for a seed and gated at a bound of 0: may not get worse.
BOUND_ZERO = (
    "recall_at_30", "sim_query_ms_mean", "bytes_per_user_byte", "failed_fraction",
)

#: Per-layer counts, ratios of counts and simulated-clock values: for one
#: seed they repeat exactly, however fast the machine is.
EXACT_COUNTS = (
    "chunking.n_chunks", "chunking.size_max_over_mean",
    "neighbors.admitted_per_scanned",
    "storage.read_calls_per_query", "storage.read_mb_per_query",
    "search.chunks_read_per_query", "search.chunks_pruned_fraction",
    "search.descriptors_scanned_per_query", "search.completed_fraction",
    "search.tail_samples",
    "service.ok_fraction", "service.shed_fraction", "service.deadline_fraction",
    "service.degraded_fraction", "service.sim_p99_ms", "service.final_budget",
    "service.breaker_opens", "chunk_cache.hit_rate", "chunk_cache.evictions",
    "faults.retries_per_request", "faults.chunks_skipped_per_request",
    "sharding.subtasks_per_request", "sharding.imbalance", "sharding.hedges",
    "sharding.hedge_wins", "sharding.failovers", "sharding.mean_coverage",
    "sharding.sim_p99_ms",
    "wal.bytes_per_op", "ingest.write_amplification",
    "ingest.dirty_chunks_per_checkpoint", "ingest.splits", "ingest.merges",
    "ingest.replayed_batches",
)


def pooled(document: Dict[str, object], workload: str, metric: str) -> List[float]:
    """A gated metric's values over every run set of one file."""
    values: List[float] = []
    for run_set in document["sets"]:  # type: ignore[union-attr]
        values += run_set[workload]["end_to_end"][metric]["values"]
    return values


def traced(document: Dict[str, object], workload: str, metric: str) -> List[float]:
    """A per-layer metric's value in the traced run of each set."""
    return [
        run_set[workload]["per_layer"]["metrics"][metric]
        for run_set in document["sets"]  # type: ignore[union-attr]
    ]


def failed_fraction(document: Dict[str, object], workload: str) -> List[float]:
    """Operations failed over operations attempted, in every run of one
    file, untraced and traced (one value: the seeds of the sets differ)."""
    failed = attempted = 0
    for run_set in document["sets"]:  # type: ignore[union-attr]
        for tally in (run_set[workload], run_set[workload]["per_layer"]):
            failed += tally["failed"]
            attempted += tally["attempted"]
    return [failed / max(1, attempted)]


def verdict(
    parent: List[float], change: List[float], lower_is_better: bool, bound: float
) -> Tuple[str, float, float]:
    """``(verdict, worse_by, spread)``; ``worse_by`` is the share of the
    parent's median by which the change's median is worse (negative = better)."""
    sign = 1.0 if lower_is_better else -1.0
    base = stats.median(parent)
    worse_by = sign * (stats.median(change) - base) / abs(base)
    spread = max(stats.quartile_spread(parent), stats.quartile_spread(change))
    if spread > bound:
        every_run_better = (
            max(change) < min(parent) if lower_is_better else min(change) > max(parent)
        )
        return ("improved" if every_run_better else "unresolved"), worse_by, spread
    if worse_by > bound:
        return "regressed", worse_by, spread
    if -worse_by > stats.quartile_spread(parent):
        return "improved", worse_by, spread
    return "unchanged", worse_by, spread


def exact_verdict(
    parent: List[float], change: List[float], lower_is_better: bool, gated: bool
) -> str:
    """Verdict on a metric that repeats exactly, from its value in the
    traced run of each set of either file."""
    if len(set(parent)) > 1 or len(set(change)) > 1:
        return "not repeatable"
    a, b = parent[0], change[0]
    if a == b:
        return "unchanged"
    if not gated:
        return "changed"
    return "regressed" if (b > a) == lower_is_better else "improved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.parent, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(args.change, encoding="utf-8") as handle:
        change = json.load(handle)
    declaration = env.load_declaration()
    lower = {m["name"]: m["better"] == "lower" for m in declaration["per_layer"]}

    bad = 0
    print(f"{'workload':14s} {'metric':38s} {'parent':>12s} {'change':>12s} "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in declaration["workloads"]):
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            a, b = pooled(parent, workload, name), pooled(change, workload, name)
            word, worse_by, spread = verdict(
                a, b, metric["better"] == "lower", metric["bound"]
            )
            bad += word == "regressed"
            print(f"{workload:14s} {name:38s} {stats.median(a):12.5g} "
                  f"{stats.median(b):12.5g} {100 * worse_by:+8.1f}% "
                  f"{100 * spread:6.1f}% {100 * metric['bound']:5.0f}%  {word}")
        for name in BOUND_ZERO + EXACT_COUNTS:
            if name == "failed_fraction":
                a, b = failed_fraction(parent, workload), failed_fraction(change, workload)
            else:
                a, b = traced(parent, workload, name), traced(change, workload, name)
            gated = name in BOUND_ZERO
            word = exact_verdict(a, b, lower[name], gated)
            bad += word in ("regressed", "not repeatable")
            # A count is only worth a row when it says something.
            if (gated and (any(a) or any(b))) or word != "unchanged":
                print(f"{workload:14s} {name:38s} {a[0]:12.6g} {b[0]:12.6g} "
                      f"{'':9s} {'':7s} {'0%' if gated else '':>6s}  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
