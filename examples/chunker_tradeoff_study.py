"""A miniature of the paper's Experiment 1: quality vs time per chunker.

Forms chunks over the same collection with four strategies — BAG
(intra-chunk similarity first), SR-tree (uniform size first), balanced
k-means (the paper's proposed hybrid) and round-robin (section 1.1's
strawman) — then measures, over a DQ workload run to completion:

* chunks read and simulated time until N of the true 30 NN are found, and
* time to completion.

Run with: ``python examples/chunker_tradeoff_study.py``
"""

import numpy as np

from repro import (
    BagClusterer,
    ChunkSearcher,
    HybridChunker,
    RoundRobinChunker,
    SRTreeChunker,
    SyntheticImageConfig,
    build_chunk_index,
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
    chunkers = {
        "BAG": BagClusterer(mpi=mpi, target_clusters=400, max_passes=400),
        "SR": SRTreeChunker(leaf_capacity=64),
        "HYB": HybridChunker(target_chunk_size=64, seed=1),
        "RR": RoundRobinChunker(n_chunks=80),
    }

    workload = dataset_queries(collection, N_QUERIES, seed=3)
    header = (
        f"{'chunker':8} {'chunks':>7} {'avg size':>9} "
        f"{'chunks(20nn)':>13} {'t(20nn) ms':>11} {'completion ms':>14}"
    )
    print(header)
    print("-" * len(header))
    for name, chunker in chunkers.items():
        result = chunker.form_chunks(collection)
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
        print(
            f"{name:8} {index.n_chunks:>7} {result.mean_chunk_size:>9.0f} "
            f"{curves.chunks_read[20]:>13.1f} "
            f"{curves.elapsed_s[20] * 1000:>11.1f} "
            f"{stats.mean_elapsed_s * 1000:>14.1f}"
        )

    print(
        "\nThe paper's lesson in miniature: locality-aware chunkers need"
        "\nfar fewer chunks than round-robin; uniform sizes (SR/HYB) deliver"
        "\nearly neighbors faster than skewed BAG clusters."
    )


if __name__ == "__main__":
    main()
