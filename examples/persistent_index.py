"""On-disk chunk index: the paper's two-file architecture, for real.

The other examples keep chunk contents in memory (their I/O cost comes
from the simulated disk).  This example writes the real files —
one generation of the saved layout: ``base-<g>.dat`` (descriptors grouped
by chunk, padded to 8 KiB pages), ``base-<g>.idx`` (centroid + radius +
location per chunk), the code file ``base-<g>.va``, an empty WAL and the
``MANIFEST.json`` whose atomic replacement commits them — reopens them,
and verifies searches against ground truth, also comparing the simulated
timing to a wall-clock measurement of the same scan.

Run with: ``python examples/persistent_index.py``
"""

import json
import os
import tempfile
import time

import numpy as np

from repro import (
    ChunkSearcher,
    SRTreeChunker,
    SyntheticImageConfig,
    build_chunk_index,
    exact_knn,
    generate_collection,
)
from repro.core.chunk_index import ChunkIndex


def main() -> None:
    collection = generate_collection(
        SyntheticImageConfig(n_images=80, mean_descriptors_per_image=50, seed=2)
    )
    chunking = SRTreeChunker(leaf_capacity=96).form_chunks(collection)
    index = build_chunk_index(chunking.retained, chunking.chunk_set)

    with tempfile.TemporaryDirectory() as workdir:
        directory = os.path.join(workdir, "descriptor_index")
        index.save(directory)
        with open(os.path.join(directory, "MANIFEST.json")) as manifest:
            generation = json.load(manifest)["generation"]
        print(f"saved generation {generation}:")
        for name in sorted(os.listdir(directory)):
            size = os.path.getsize(os.path.join(directory, name))
            print(f"  {name:<16} {size:>9} bytes")
        print(f"({index.n_chunks} chunks, 8 KiB pages)")

        loaded = ChunkIndex.load(directory, dimensions=collection.dimensions)
        searcher = ChunkSearcher(loaded)

        rng = np.random.default_rng(1)
        rows = rng.choice(len(collection), size=10, replace=False)
        wall_start = time.perf_counter()
        simulated = 0.0
        for row in rows:
            query = collection.vectors[row].astype(np.float64)
            result = searcher.search(query, k=10)
            assert result.completed
            assert list(result.neighbor_ids()) == list(
                exact_knn(collection, query, 10)
            )
            simulated += result.elapsed_s
        wall = time.perf_counter() - wall_start
        loaded.close()

    print(f"\n10 exact queries against the on-disk index: all correct")
    print(f"simulated 2005-hardware time: {simulated * 1000:8.1f} ms")
    print(f"actual wall-clock time:       {wall * 1000:8.1f} ms")
    print("\n(The simulated clock models the paper's disk; the wall clock"
          "\nmeasures this machine reading the same pages from files.)")


if __name__ == "__main__":
    main()
