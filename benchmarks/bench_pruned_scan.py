"""Pruned scan path: metric chunk pruning vs the PR-1 batch engine.

The pruner skips the host-side work (chunk read + distance scan) of every
chunk whose triangle-inequality lower bound proves it cannot improve the
current top-k, while charging identical *simulated* time and emitting
identical traces.  Two operating points of the same engine are measured,
both running every query to completion at the default benchmark scale:

``single``
    Queries issued one at a time — how the PR-4 query service drives the
    engine.  Each pruned chunk skips its own read and kernel call, so this
    latency-critical path carries the acceptance bar: at least 30% of
    chunk scans pruned and at least a 2x end-to-end speedup over the
    unpruned engine.

``batched``
    The whole query set in one ``search_batch`` call.  The chunk-major
    cohort kernel already amortizes each chunk's read and scan across
    every query in the batch, so pruning saves only per-event bookkeeping
    here — reported to document that the two optimizations compose rather
    than to clear a bar.

Pruning must not move a single simulated timestamp in either mode (and
batch composition must not change per-query outcomes); both invariants
are re-asserted at benchmark scale.

Also runnable standalone for CI, writing a JSON artifact::

    PYTHONPATH=src python benchmarks/bench_pruned_scan.py --quick \
        --output pruned_scan_bench.json \
        --deterministic-output pruned_scan_det.json

The ``--deterministic-output`` file contains only quantities that are
pure functions of the experiment seed (pruned fractions and simulated
times, no wall-clock measurements); CI runs the benchmark twice and
asserts the two files are byte-identical.
"""

from __future__ import annotations

import time

from repro.core.search import ChunkSearcher

N_QUERIES = 64
REPEATS = 3

#: Acceptance bars (default scale, run-to-completion queries, single mode).
MIN_SPEEDUP = 2.0
MIN_PRUNED_FRACTION = 0.30


def _best_of(fn, repeats=REPEATS):
    """Best wall-clock of ``repeats`` runs (insulates from scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(index, queries, k, cost_model):
    """Run the unpruned and pruned engines to completion in both modes.

    Returns ``(deterministic, timing)`` dicts: the first holds only
    seed-determined quantities (identical across reruns), the second the
    wall-clock measurements.
    """
    unpruned = ChunkSearcher(index, cost_model=cost_model, prune=False)
    pruned = ChunkSearcher(index, cost_model=cost_model, prune=True)

    def run_single(searcher):
        results = []
        for query in queries:
            results.extend(searcher.search_batch(query, k=k).results)
        return results

    def run_batched(searcher):
        return searcher.search_batch(queries, k=k).results

    # Warm both paths (page cache, BLAS thread pools) before timing, and
    # keep the results for the simulated-side report and the invariants.
    baseline = run_single(unpruned)
    result = run_single(pruned)
    batched = run_batched(pruned)

    events_total = sum(len(r.trace) for r in result)
    pruned_total = sum(r.chunks_pruned for r in result)
    assert sum(r.chunks_pruned for r in baseline) == 0
    # The contracts the test suite checks per-query, re-asserted at
    # benchmark scale: pruning must not move a single simulated timestamp,
    # and batch composition must not change per-query outcomes.
    assert [r.elapsed_s for r in result] == [r.elapsed_s for r in baseline]
    assert [r.elapsed_s for r in batched] == [r.elapsed_s for r in baseline]

    single_unpruned_s = _best_of(lambda: run_single(unpruned))
    single_pruned_s = _best_of(lambda: run_single(pruned))
    batched_unpruned_s = _best_of(lambda: run_batched(unpruned))
    batched_pruned_s = _best_of(lambda: run_batched(pruned))
    deterministic = {
        "n_queries": int(len(queries)),
        "k": int(k),
        "n_chunks": int(index.n_chunks),
        "chunk_events_total": int(events_total),
        "chunks_pruned_total": int(pruned_total),
        "pruned_fraction": pruned_total / events_total if events_total else 0.0,
        "mean_simulated_elapsed_s": (
            sum(r.elapsed_s for r in result) / len(result) if result else 0.0
        ),
    }
    timing = {
        "single_unpruned_s": single_unpruned_s,
        "single_pruned_s": single_pruned_s,
        "single_speedup": single_unpruned_s / single_pruned_s,
        "batched_unpruned_s": batched_unpruned_s,
        "batched_pruned_s": batched_pruned_s,
        "batched_speedup": batched_unpruned_s / batched_pruned_s,
    }
    return deterministic, timing


def bench_pruned_scan(benchmark, data):
    built = data.built("SR", "SMALL")
    queries = data.workloads["DQ"].queries[:N_QUERIES]
    k = data.scale.k
    model = data.scale.cost_model

    deterministic, timing = measure(built.index, queries, k, model)
    benchmark.pedantic(
        lambda: ChunkSearcher(built.index, cost_model=model).search_batch(
            queries, k=k
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        f"{deterministic['n_queries']} queries: "
        f"single {timing['single_unpruned_s'] * 1e3:.1f} -> "
        f"{timing['single_pruned_s'] * 1e3:.1f} ms "
        f"({timing['single_speedup']:.1f}x), "
        f"batched {timing['batched_unpruned_s'] * 1e3:.1f} -> "
        f"{timing['batched_pruned_s'] * 1e3:.1f} ms "
        f"({timing['batched_speedup']:.1f}x), "
        f"pruned fraction {deterministic['pruned_fraction']:.1%}"
    )
    assert deterministic["pruned_fraction"] >= MIN_PRUNED_FRACTION, (
        f"pruned fraction {deterministic['pruned_fraction']:.1%} below the "
        f"{MIN_PRUNED_FRACTION:.0%} acceptance bar"
    )
    assert timing["single_speedup"] >= MIN_SPEEDUP, (
        f"pruned scan speedup {timing['single_speedup']:.2f}x below the "
        f"{MIN_SPEEDUP:.0f}x acceptance bar"
    )


def main(argv=None):
    import argparse
    import json
    import os
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the test scale (seconds instead of minutes)",
    )
    parser.add_argument(
        "--output", default=None, help="write the full report to this JSON file"
    )
    parser.add_argument(
        "--deterministic-output",
        default=None,
        help="write only the seed-determined section (CI compares two "
        "runs of this file byte for byte)",
    )
    args = parser.parse_args(argv)

    from repro.experiments.config import get_scale
    from repro.experiments.data import prepare

    scale = get_scale("test" if args.quick else "default")
    data = prepare(scale)
    built = data.built("SR", "SMALL")
    queries = data.workloads["DQ"].queries
    n_queries = min(N_QUERIES, queries.shape[0])
    deterministic, timing = measure(
        built.index, queries[:n_queries], data.scale.k, data.scale.cost_model
    )
    deterministic = {"scale": scale.name, **deterministic}
    report = {"deterministic": deterministic, "timing": timing}
    print(json.dumps(report, indent=2))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {os.path.abspath(args.output)}", file=sys.stderr)
    if args.deterministic_output:
        with open(args.deterministic_output, "w", encoding="utf-8") as f:
            json.dump(deterministic, f, indent=2, sort_keys=True)
        print(
            f"wrote {os.path.abspath(args.deterministic_output)}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
