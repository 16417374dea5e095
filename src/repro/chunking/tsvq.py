"""TSVQ chunker: tree-structured vector quantization.

Gersho & Gray's TSVQ is the baseline that Clindex (Li et al., TKDE 2002)
— the paper that introduced "clustering for indexing" — compared its CF
algorithm against.  Including it completes the chunker family the paper's
related-work section discusses.

The structure is a binary k-means tree: starting from the whole
collection, each node is split with 2-means until its population fits the
chunk-size bound; the leaves become chunks.  TSVQ chunks are spatially
coherent and bounded in size, but the greedy binary splits can slice
natural clusters (the known weakness versus density-based methods).
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from ..core.chunk import Chunk, ChunkSet
from ..core.dataset import DescriptorCollection
from .base import Chunker, ChunkingResult

__all__ = ["TsvqChunker", "LLOYD_ITERATIONS"]

#: 2-means refinement iterations per split.
LLOYD_ITERATIONS = 6


class TsvqChunker(Chunker):
    """Binary k-means tree quantization into bounded-size chunks.

    Parameters
    ----------
    max_chunk_size:
        A leaf stops splitting once its population is at most this.
    seed:
        Seed for split initialization.
    """

    name = "TSVQ"

    def __init__(self, max_chunk_size: int, seed: int = 0):
        if max_chunk_size < 1:
            raise ValueError("max chunk size must be positive")
        self.max_chunk_size = int(max_chunk_size)
        self.seed = int(seed)

    def _split_two_means(
        self, vectors: np.ndarray, rows: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One 2-means split; returns (left_rows, right_rows)."""
        points = vectors[rows]
        # Initialize with the two most distant of a small sample.
        sample = rows if rows.size <= 32 else rng.choice(rows, 32, replace=False)
        sample_points = vectors[sample]
        d2 = (
            np.einsum("id,id->i", sample_points, sample_points)[:, np.newaxis]
            - 2.0 * (sample_points @ sample_points.T)
            + np.einsum("id,id->i", sample_points, sample_points)[np.newaxis, :]
        )
        i, j = np.unravel_index(np.argmax(d2), d2.shape)
        centers = np.stack([sample_points[i], sample_points[j]]).astype(np.float64)

        assignment = np.zeros(rows.size, dtype=np.intp)
        for _ in range(LLOYD_ITERATIONS):
            d_left = np.einsum(
                "id,id->i", points - centers[0], points - centers[0]
            )
            d_right = np.einsum(
                "id,id->i", points - centers[1], points - centers[1]
            )
            new_assignment = (d_right < d_left).astype(np.intp)
            if np.array_equal(new_assignment, assignment) and _ > 0:
                break
            assignment = new_assignment
            for c in (0, 1):
                members = points[assignment == c]
                if members.size:
                    centers[c] = members.mean(axis=0)
        left = rows[assignment == 0]
        right = rows[assignment == 1]
        if left.size == 0 or right.size == 0:
            # Degenerate split (duplicate points): cut by median position.
            half = rows.size // 2
            left, right = rows[:half], rows[half:]
        return left, right

    def form_chunks(self, collection: DescriptorCollection) -> ChunkingResult:
        n = len(collection)
        if n == 0:
            raise ValueError("cannot chunk an empty collection")
        # Build-time wall-clock measurement: feeds build_info only,
        # never the simulated query cost (hence the lint waiver).
        started = time.perf_counter()  # repro-lint: disable=CLK001
        rng = np.random.default_rng(self.seed)
        vectors = collection.vectors.astype(np.float64)

        leaves: List[np.ndarray] = []
        stack = [np.arange(n, dtype=np.intp)]
        while stack:
            rows = stack.pop()
            if rows.size <= self.max_chunk_size:
                leaves.append(rows)
                continue
            left, right = self._split_two_means(vectors, rows, rng)
            stack.append(left)
            stack.append(right)

        chunks = [Chunk.from_rows(collection, np.sort(rows)) for rows in leaves]
        elapsed = time.perf_counter() - started  # repro-lint: disable=CLK001
        return ChunkingResult(
            original=collection,
            retained=collection,
            chunk_set=ChunkSet(collection, chunks),
            outlier_rows=np.empty(0, dtype=np.intp),
            build_info={
                "build_seconds": elapsed,
                "max_chunk_size": float(self.max_chunk_size),
                "n_leaves": float(len(leaves)),
            },
        )
