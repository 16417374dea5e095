"""A growing collection: incremental maintenance instead of rebuilds.

The paper's future work targets a 220-million-descriptor collection — at
which scale the 12-day BAG rebuild (or even the 3-hour SR-tree rebuild) is
not an option for a live system.  This example runs a day-in-the-life
simulation against :class:`repro.core.maintenance.ChunkIndexMaintainer`:

1. build a chunk index over an initial collection;
2. stream in new images (inserts) and retire old ones (deletes), letting
   the maintainer split oversized chunks and merge undersized ones;
3. after every batch, verify searches stay exact against a sequential scan
   of the *current* logical collection and report the chunk structure.

Run with: ``python examples/growing_collection.py``
"""

import numpy as np

from repro import (
    ChunkIndexMaintainer,
    ChunkSearcher,
    SRTreeChunker,
    SyntheticImageConfig,
    build_chunk_index,
    exact_knn,
    generate_collection,
)
from repro.core.dataset import DescriptorCollection


def main() -> None:
    initial = generate_collection(
        SyntheticImageConfig(n_images=80, mean_descriptors_per_image=40, seed=3)
    )
    chunking = SRTreeChunker(leaf_capacity=64).form_chunks(initial)
    index = build_chunk_index(chunking.retained, chunking.chunk_set)
    maintainer = ChunkIndexMaintainer(index)
    print(
        f"initial: {len(initial)} descriptors, {index.n_chunks} chunks, "
        f"target size {maintainer.target_chunk_size}"
    )

    # Logical state mirrored on the side for verification.
    live_ids = {int(i): initial.vectors[row] for row, i in enumerate(initial.ids)}
    next_id = int(initial.ids.max()) + 1

    rng = np.random.default_rng(7)
    arrivals = generate_collection(
        SyntheticImageConfig(n_images=40, mean_descriptors_per_image=40, seed=99)
    )
    arrival_cursor = 0

    for day in range(1, 6):
        # ~300 new descriptors arrive, ~150 old ones are retired.
        n_in = min(300, len(arrivals) - arrival_cursor)
        for _ in range(n_in):
            vector = arrivals.vectors[arrival_cursor]
            maintainer.insert(next_id, vector)
            live_ids[next_id] = vector
            next_id += 1
            arrival_cursor += 1
        for victim in rng.choice(sorted(live_ids), size=150, replace=False):
            maintainer.delete(int(victim))
            del live_ids[int(victim)]

        # Verify: fresh searcher over the maintained index is still exact.
        current = maintainer.to_index(name=f"day-{day}")
        searcher = ChunkSearcher(current)
        ids = sorted(live_ids)
        logical = DescriptorCollection(
            vectors=np.vstack([live_ids[i] for i in ids]),
            ids=np.asarray(ids, dtype=np.int64),
            image_ids=np.zeros(len(ids), dtype=np.int64),
        )
        checks = rng.choice(len(logical), size=5, replace=False)
        for row in checks:
            query = logical.vectors[row].astype(float)
            got = searcher.search(query, k=10)
            assert list(got.neighbor_ids()) == list(exact_knn(logical, query, 10))

        stats = maintainer.stats
        print(
            f"day {day}: {len(maintainer):5d} live descriptors, "
            f"{maintainer.n_chunks:3d} chunks | "
            f"splits={stats.splits} merges={stats.merges} | searches exact"
        )

    print("\nSearches remained provably exact through every batch, splits")
    print("and merges keeping chunk sizes around the target.")


if __name__ == "__main__":
    main()
