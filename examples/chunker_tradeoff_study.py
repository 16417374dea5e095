"""A miniature of the paper's Experiment 1: quality vs time per chunker.

Forms chunks over the same collection four ways — BAG (intra-chunk
similarity first), BAG's clusters cut to at most twice the mean size (the
paper's section 7 proposal: size first, then similarity), SR-tree (uniform
size first) and round-robin (section 1.1's strawman) — then measures, over
a DQ workload run to completion:

* chunks read and simulated time until N of the true 30 NN are found, and
* time to completion.

The closing lines name the winners of the printed rows.

Run with: ``python examples/chunker_tradeoff_study.py``
"""

import numpy as np

from repro import (
    BagClusterer,
    ChunkSearcher,
    RoundRobinChunker,
    SRTreeChunker,
    SyntheticImageConfig,
    build_chunk_index,
    cap_chunk_sizes,
    estimate_mpi,
    generate_collection,
)
from repro.core.ground_truth import GroundTruthStore
from repro.core.metrics import completion_stats, curves_from_traces
from repro.workloads.queries import dataset_queries

K = 30
N_QUERIES = 20


def main() -> None:
    collection = generate_collection(
        SyntheticImageConfig(
            n_images=100,
            mean_descriptors_per_image=50,
            n_patterns=100,
            pattern_std=0.05,
            pattern_scale_range=(-1.1, 0.0),
            seed=9,
        )
    )
    print(f"collection: {len(collection)} descriptors\n")

    mpi = estimate_mpi(collection)
    bag = BagClusterer(mpi=mpi, target_clusters=400)
    results = {"BAG": bag.form_chunks(collection)}
    results["BAG s=2"] = cap_chunk_sizes(results["BAG"], 2.0)
    results["SR"] = SRTreeChunker(leaf_capacity=64).form_chunks(collection)
    results["RR"] = RoundRobinChunker(n_chunks=80).form_chunks(collection)

    workload = dataset_queries(collection, N_QUERIES, seed=3)
    header = (
        f"{'chunker':8} {'chunks':>7} {'avg size':>9} "
        f"{'chunks(20nn)':>13} {'t(20nn) ms':>11} {'completion ms':>14}"
    )
    print(header)
    print("-" * len(header))
    rows = {}
    for name, result in results.items():
        index = build_chunk_index(result.retained, result.chunk_set, name=name)
        truth = GroundTruthStore.compute(result.retained, workload.queries, K)
        searcher = ChunkSearcher(index)
        traces = [
            searcher.search(
                workload.queries[i], k=K, true_neighbor_ids=truth.get(i)
            ).trace
            for i in range(len(workload))
        ]
        curves = curves_from_traces(traces, K)
        stats = completion_stats(traces)
        rows[name] = (
            float(curves.chunks_read[20]),
            float(curves.elapsed_s[20]) * 1000,
            stats.mean_elapsed_s * 1000,
        )
        print(
            f"{name:8} {index.n_chunks:>7} {result.mean_chunk_size:>9.0f} "
            f"{rows[name][0]:>13.1f} {rows[name][1]:>11.1f} {rows[name][2]:>14.1f}"
        )

    most = max(rows, key=lambda name: rows[name][0])
    first = min(rows, key=lambda name: rows[name][1])
    done = min(rows, key=lambda name: rows[name][2])
    print(
        f"\n{most} reads the most chunks to find 20 NN ({rows[most][0]:.1f});"
        f"\n{first} finds 20 NN soonest ({rows[first][1]:.1f} ms);"
        f"\n{done} completes soonest ({rows[done][2]:.1f} ms)."
    )


if __name__ == "__main__":
    main()
