"""Hybrid chunker: uniform size first, dissimilarity second.

The paper's conclusion: "we should use a clustering algorithm which keeps
uniform chunk size as the first priority, but attempts to achieve the
smallest possible intra-chunk dissimilarity."  This module implements that
proposal as *balanced k-means*: Lloyd iterations for locality, followed by
a balancing step that reassigns points from over-full clusters to their
next-best under-full cluster, so every chunk ends within a bounded factor
of the target size.

This is the forward-looking strategy the paper's results argue for; its
``HYB`` row in the chunker-comparison ablation (``ablation_chunker_zoo``)
pits it against both extremes.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from ..core.chunk import Chunk, ChunkSet
from ..core.dataset import DescriptorCollection
from .base import Chunker, ChunkingResult

__all__ = ["HybridChunker", "LLOYD_ITERATIONS", "MAX_SIZE_FACTOR"]

#: Hard cap on a chunk's size as a multiple of the target (the "uniform
#: size first" guarantee).
MAX_SIZE_FACTOR = 1.25
#: K-means refinement iterations before balancing.
LLOYD_ITERATIONS = 8


class HybridChunker(Chunker):
    """Balanced k-means chunk formation.

    Parameters
    ----------
    target_chunk_size:
        Desired descriptors per chunk; the chunk count is derived as
        ``ceil(n / target_chunk_size)``; no chunk exceeds
        :data:`MAX_SIZE_FACTOR` times it.
    seed:
        Seed for the k-means++-style center initialization.
    """

    name = "HYB"

    def __init__(self, target_chunk_size: int, seed: int = 0):
        if target_chunk_size < 1:
            raise ValueError("target chunk size must be positive")
        self.target_chunk_size = int(target_chunk_size)
        self.seed = int(seed)

    # -- k-means machinery ------------------------------------------------------

    def _init_centers(
        self, vectors: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """k-means++ seeding (distance-proportional sampling)."""
        n = vectors.shape[0]
        centers = np.empty((k, vectors.shape[1]), dtype=np.float64)
        centers[0] = vectors[rng.integers(n)]
        d2 = np.full(n, np.inf)
        for c in range(1, k):
            diffs = vectors - centers[c - 1]
            d2 = np.minimum(d2, np.einsum("ij,ij->i", diffs, diffs))
            total = d2.sum()
            if total <= 0:
                centers[c] = vectors[rng.integers(n)]
                continue
            centers[c] = vectors[rng.choice(n, p=d2 / total)]
        return centers

    def _assign(self, vectors: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Nearest-center assignment, blockwise."""
        n = vectors.shape[0]
        out = np.empty(n, dtype=np.intp)
        c_norms = np.einsum("ij,ij->i", centers, centers)
        block = max(1, 4_000_000 // max(centers.shape[0], 1))
        for start in range(0, n, block):
            stop = min(start + block, n)
            cross = vectors[start:stop] @ centers.T
            d2 = c_norms[np.newaxis, :] - 2.0 * cross
            out[start:stop] = np.argmin(d2, axis=1)
        return out

    def _balance(
        self, vectors: np.ndarray, centers: np.ndarray, assignment: np.ndarray
    ) -> np.ndarray:
        """Move points out of over-cap clusters into their next-best
        under-cap cluster, farthest-from-centroid points first."""
        k = centers.shape[0]
        cap = int(np.ceil(self.target_chunk_size * MAX_SIZE_FACTOR))
        counts = np.bincount(assignment, minlength=k)
        c_norms = np.einsum("ij,ij->i", centers, centers)
        assignment = assignment.copy()
        for cluster in np.flatnonzero(counts > cap):
            members = np.flatnonzero(assignment == cluster)
            diffs = vectors[members] - centers[cluster]
            d2 = np.einsum("ij,ij->i", diffs, diffs)
            evict = members[np.argsort(-d2, kind="stable")][: counts[cluster] - cap]
            for row in evict:
                d2_all = c_norms - 2.0 * (vectors[row] @ centers.T)
                for candidate in np.argsort(d2_all, kind="stable"):
                    if candidate != cluster and counts[candidate] < cap:
                        assignment[row] = candidate
                        counts[cluster] -= 1
                        counts[candidate] += 1
                        break
        return assignment

    # -- public API ----------------------------------------------------------------

    def form_chunks(self, collection: DescriptorCollection) -> ChunkingResult:
        n = len(collection)
        if n == 0:
            raise ValueError("cannot chunk an empty collection")
        # Build-time wall-clock measurement: feeds build_info only,
        # never the simulated query cost (hence the lint waiver).
        started = time.perf_counter()  # repro-lint: disable=CLK001
        k = max(1, -(-n // self.target_chunk_size))
        vectors = collection.vectors.astype(np.float64)
        rng = np.random.default_rng(self.seed)

        centers = self._init_centers(vectors, k, rng)
        assignment = self._assign(vectors, centers)
        for _ in range(LLOYD_ITERATIONS):
            for c in range(k):
                members = assignment == c
                if members.any():
                    centers[c] = vectors[members].mean(axis=0)
            new_assignment = self._assign(vectors, centers)
            if np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
        assignment = self._balance(vectors, centers, assignment)

        chunks: List[Chunk] = []
        for c in range(k):
            rows = np.flatnonzero(assignment == c)
            if rows.size:
                chunks.append(Chunk.from_rows(collection, rows))
        elapsed = time.perf_counter() - started  # repro-lint: disable=CLK001
        return ChunkingResult(
            original=collection,
            retained=collection,
            chunk_set=ChunkSet(collection, chunks),
            outlier_rows=np.empty(0, dtype=np.intp),
            build_info={
                "build_seconds": elapsed,
                "k": float(k),
                "max_size_factor": MAX_SIZE_FACTOR,
            },
        )
