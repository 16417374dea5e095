"""Coarse centroid routing: the chunk centroids clustered into groups.

A small deterministic k-means, built once per index, clusters the ``C``
chunk centroids into ``G = ceil(sqrt(C))`` groups, each with a center and
two slack terms bounding its members by the triangle inequality.  No
search reads the groups: every query ranks all ``C`` centroids
(:meth:`~repro.core.search.ChunkSearcher.rank_chunks_batch`), which
measured faster than expanding groups lazily on the benchmark's 500-chunk
serving index.
The benchmark harness still builds a router and times it
(``routing.build_s``); :class:`~repro.core.BatchChunkSearcher` checks that
it covers the index and ranks flat.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from .distance import pairwise_squared_distances, squared_distances

__all__ = ["CentroidRouter"]

#: Lloyd iterations of the router's k-means over the chunk centroids.
KMEANS_ITERATIONS = 8


class CentroidRouter:
    """Chunk centroids clustered into coarse groups.

    Build one per index (:meth:`build` / :meth:`from_index`).  The router
    stores only geometry — group centers, members, and two per-group slack
    terms (the largest member distance from the center, alone and plus the
    member's radius) — and is immutable after construction.
    """

    def __init__(
        self,
        centers: np.ndarray,
        member_ids: List[np.ndarray],
        member_centroids: List[np.ndarray],
        member_radii: List[np.ndarray],
        key_slack: np.ndarray,
        lb_slack: np.ndarray,
        seed: int,
    ):
        self.centers = centers
        self.member_ids = member_ids
        self.member_centroids = member_centroids
        self.member_radii = member_radii
        self.key_slack = key_slack
        self.lb_slack = lb_slack
        self.seed = int(seed)
        self.n_chunks = int(sum(ids.shape[0] for ids in member_ids))

    @classmethod
    def build(
        cls,
        centroids: np.ndarray,
        radii: np.ndarray,
        seed: int = 0,
    ) -> "CentroidRouter":
        """Cluster chunk centroids with a small deterministic k-means.

        There are ``ceil(sqrt(C))`` groups — the probe count that balances
        the group scan against expected expansions.  The whole build is a
        pure function of ``(centroids, radii, seed)``: seeded center
        initialization, :data:`KMEANS_ITERATIONS` rounds of argmin
        assignment (ties to the lowest group id), and empty clusters keeping
        their previous center.
        """
        centroids = np.ascontiguousarray(centroids, dtype=np.float64)
        radii = np.asarray(radii, dtype=np.float64).reshape(-1)
        if centroids.ndim != 2 or centroids.shape[0] == 0:
            raise ValueError("router needs a (n_chunks, d) centroid matrix")
        if radii.shape[0] != centroids.shape[0]:
            raise ValueError(
                f"got {radii.shape[0]} radii for {centroids.shape[0]} centroids"
            )
        n_chunks = centroids.shape[0]
        n_groups = int(math.ceil(math.sqrt(n_chunks)))

        rng = np.random.default_rng(seed)
        picks = np.sort(rng.choice(n_chunks, size=n_groups, replace=False))
        centers = centroids[picks].copy()
        assign = np.zeros(n_chunks, dtype=np.intp)
        for _ in range(KMEANS_ITERATIONS):
            d2 = pairwise_squared_distances(centroids, centers)
            assign = np.argmin(d2, axis=1)
            for g in range(n_groups):
                members = assign == g
                if np.any(members):
                    centers[g] = centroids[members].mean(axis=0)

        member_ids: List[np.ndarray] = []
        member_centroids: List[np.ndarray] = []
        member_radii: List[np.ndarray] = []
        key_slack = np.zeros(n_groups, dtype=np.float64)
        lb_slack = np.zeros(n_groups, dtype=np.float64)
        for g in range(n_groups):
            ids = np.flatnonzero(assign == g).astype(np.int64)
            member_ids.append(ids)
            member_centroids.append(centroids[ids])
            member_radii.append(radii[ids])
            if ids.shape[0]:
                spread = np.sqrt(squared_distances(centers[g], centroids[ids]))
                key_slack[g] = float(spread.max())
                lb_slack[g] = float((spread + radii[ids]).max())
        return cls(
            centers=centers,
            member_ids=member_ids,
            member_centroids=member_centroids,
            member_radii=member_radii,
            key_slack=key_slack,
            lb_slack=lb_slack,
            seed=seed,
        )

    @classmethod
    def from_index(
        cls,
        index: "object",
        seed: int = 0,
    ) -> "CentroidRouter":
        """Build from a :class:`~repro.core.chunk_index.ChunkIndex`."""
        return cls.build(
            index.centroid_matrix(),  # type: ignore[attr-defined]
            index.radius_vector(),  # type: ignore[attr-defined]
            seed=seed,
        )
