"""Copyright-protection image search (the paper's motivating application).

Paper section 4.1: the local descriptors "are particularly well suited to
enforce robust content-based image searches for copyright protection" —
find the original image even when the query is a distorted copy.

This example simulates that pipeline end to end:

1. index a collection of images via their local descriptors;
2. take one image, distort its descriptors (noise + dropping half of them,
   simulating re-encoding and cropping);
3. run the multi-descriptor voting search with an aggressive stop rule;
4. check the original is identified, and how much search effort it took.

Run with: ``python examples/copyright_search.py``
"""

import numpy as np

from repro import (
    ChunkSearcher,
    MaxChunks,
    SRTreeChunker,
    SyntheticImageConfig,
    build_chunk_index,
    generate_collection,
)
from repro.extensions.multi_descriptor import MultiDescriptorSearcher


def distort_image_descriptors(
    descriptors: np.ndarray, keep_fraction: float, noise_std: float, seed: int
) -> np.ndarray:
    """Simulate a pirated copy: crop (drop descriptors) and re-encode
    (perturb the surviving descriptors)."""
    rng = np.random.default_rng(seed)
    n_keep = max(1, int(len(descriptors) * keep_fraction))
    rows = rng.choice(len(descriptors), size=n_keep, replace=False)
    kept = descriptors[rows].astype(np.float64)
    return kept + noise_std * rng.standard_normal(kept.shape)


def main() -> None:
    collection = generate_collection(
        SyntheticImageConfig(n_images=150, mean_descriptors_per_image=60, seed=5)
    )
    chunking = SRTreeChunker(leaf_capacity=128).form_chunks(collection)
    index = build_chunk_index(chunking.retained, chunking.chunk_set)
    retained = chunking.retained
    searcher = MultiDescriptorSearcher(
        ChunkSearcher(index),
        dict(zip(retained.ids.tolist(), retained.image_ids.tolist())),
    )
    print(
        f"indexed {len(collection)} descriptors from "
        f"{len(set(collection.image_ids.tolist()))} images "
        f"({index.n_chunks} chunks)"
    )

    rng = np.random.default_rng(0)
    hits = 0
    trials = 10
    for trial in range(trials):
        original = int(rng.integers(150))
        rows = np.flatnonzero(collection.image_ids == original)
        pirate = distort_image_descriptors(
            collection.vectors[rows], keep_fraction=0.5, noise_std=0.01,
            seed=trial,
        )
        matches = searcher.search_image(
            pirate,
            k_per_descriptor=5,
            top_images=3,
            stop_rule=MaxChunks(4),  # aggressive approximation
        )
        best = matches[0].image_id if matches else -1
        ok = best == original
        hits += ok
        print(
            f"trial {trial}: original=image#{original:3d}  "
            f"best match=image#{best:3d}  votes={matches[0].votes:3d}  "
            f"{'OK' if ok else 'MISS'}"
        )
    print(f"\nidentified {hits}/{trials} distorted copies "
          f"(4 chunks per descriptor search)")


if __name__ == "__main__":
    main()
