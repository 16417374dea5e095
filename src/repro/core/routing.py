"""Coarse centroid routing: sub-linear chunk ranking with an exactness
certificate.

The paper's searcher ranks *all* ``C`` chunk centroids for every query —
an ``O(C·d)`` prefix that dominates query start-up once indexes reach the
ROADMAP's production scale.  This module clusters the centroids themselves
(a small deterministic k-means, built once at index time) into
``G ≈ sqrt(C)`` groups, so a query probes ``O(G·d)`` group centers first
and expands a group into its members only when the scan order actually
reaches it.

Exactness is preserved, not approximated:

* **Order.**  A group's members can only be emitted once no *unexpanded*
  group could still contain an earlier-ranked chunk.  For a group ``g``
  with center ``z_g``, every member ``m`` satisfies (triangle inequality)
  ``d(q, c_m) >= d(q, z_g) - max_m d(c_m, z_g)``, so the right-hand side
  is an optimistic bound on any key inside ``g``; members are emitted in
  ``(key, chunk_id)`` heap order exactly as the flat
  ``lexsort((ids, key))`` of the full ranking would emit them, ties
  expanding the group first.
* **Remaining lower bound.**  The completion proof needs the *exact*
  minimum of ``max(0, d(q, c_m) - r_m)`` over all unscanned chunks.
  ``max(0, d(q, z_g) - max_m (d(c_m, z_g) + r_m))`` lower-bounds every
  member of an unexpanded group, so the stream can certify the remainder
  lazily: if the best expanded-but-unscanned bound is already <= every
  unexpanded group's bound it *is* the exact minimum; otherwise the
  blocking group is expanded and the test repeats.  The value returned is
  bit-equal to the flat ranking's suffix minimum — it is the minimum of
  the same floats — so stop rules and ``SearchProgress`` consumers see
  identical numbers.

Member distances are computed with the direct-form kernel
(:func:`~repro.core.distance.squared_distances`), whose row results do not
depend on which subset of rows is evaluated — the property that makes the
lazily expanded keys bit-identical to a full direct-form ranking pass
(the searcher's own flat ranking uses the expanded-form kernel, equal to
within an ulp).
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

import numpy as np

from .distance import pairwise_squared_distances, squared_distances

__all__ = ["CentroidRouter", "RouterStream"]

_RANK_KEYS = ("centroid", "lower_bound")

#: Lloyd iterations of the router's k-means over the chunk centroids.
KMEANS_ITERATIONS = 8


class CentroidRouter:
    """Chunk centroids clustered into coarse groups for routed ranking.

    Build one per index (:meth:`build` / :meth:`from_index`) and pass it to
    ``ChunkSearcher``; every query then opens a
    :class:`RouterStream` over the groups.  The router stores only
    geometry — group centers, members, and two per-group slack terms — and
    is immutable after construction, so one instance is safely shared by
    any number of queries, engines, and worker threads.

    Clustering quality affects only *speed* (how many groups a query
    expands); any partition of the chunks yields exact results, because
    every emission and certification decision is guarded by the triangle
    inequality bounds above.
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

    @property
    def n_groups(self) -> int:
        return self.centers.shape[0]

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

    def stream(self, query: np.ndarray, rank_by: str = "centroid") -> "RouterStream":
        """Open one query's routed ranking stream."""
        if rank_by not in _RANK_KEYS:
            raise ValueError(f"unknown ranking rule {rank_by!r}")
        return RouterStream(self, query, rank_by)


class RouterStream:
    """Lazy, exact-order chunk emission for one query.

    ``next()`` yields ``(chunk_id, lower_bound)`` in precisely the order
    the flat ``lexsort((ids, key))`` ranking would, expanding centroid
    groups only when the scan front reaches them;
    ``exact_remaining_lb()`` resolves the exact minimum lower bound over
    every unemitted chunk (the completion-proof threshold), expanding
    further groups only when certification demands it.
    """

    def __init__(self, router: CentroidRouter, query: np.ndarray, rank_by: str):
        self._router = router
        self._query = np.asarray(query, dtype=np.float64).reshape(-1)
        self._rank_by = rank_by
        center_d = np.sqrt(squared_distances(self._query, router.centers))
        slack = router.key_slack if rank_by == "centroid" else router.lb_slack
        key_bound = np.maximum(0.0, center_d - slack)
        lb_bound = np.maximum(0.0, center_d - router.lb_slack)
        n_groups = router.n_groups
        self._expanded = [False] * n_groups
        # (optimistic key bound, group) — gates member emission order.
        self._group_heap: List[Tuple[float, int]] = [
            (float(key_bound[g]), g) for g in range(n_groups)
        ]
        heapq.heapify(self._group_heap)
        # (optimistic lower bound, group) — gates certification.
        self._group_lb_heap: List[Tuple[float, int]] = [
            (float(lb_bound[g]), g) for g in range(n_groups)
        ]
        heapq.heapify(self._group_lb_heap)
        # Expanded, unemitted members: scan order and lower-bound order.
        self._member_heap: List[Tuple[float, int, float]] = []
        self._lb_heap: List[Tuple[float, int]] = []
        self._emitted: "set[int]" = set()
        self._n_remaining = router.n_chunks
        self.groups_expanded = 0

    # -- internals -----------------------------------------------------------

    def _expand(self, group: int) -> None:
        router = self._router
        self._expanded[group] = True
        self.groups_expanded += 1
        ids = router.member_ids[group]
        if not ids.shape[0]:
            return
        d = np.sqrt(squared_distances(self._query, router.member_centroids[group]))
        lbs = np.maximum(0.0, d - router.member_radii[group])
        keys = d if self._rank_by == "centroid" else lbs
        member_heap = self._member_heap
        lb_heap = self._lb_heap
        for i in range(ids.shape[0]):
            chunk_id = int(ids[i])
            lb = float(lbs[i])
            heapq.heappush(member_heap, (float(keys[i]), chunk_id, lb))
            heapq.heappush(lb_heap, (lb, chunk_id))

    def _top_unexpanded(
        self, heap: List[Tuple[float, int]]
    ) -> Optional[Tuple[float, int]]:
        while heap and self._expanded[heap[0][1]]:
            heapq.heappop(heap)
        return heap[0] if heap else None

    # -- the stream ----------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self._n_remaining == 0

    def next(self) -> Optional[Tuple[int, float]]:
        """``(chunk_id, lower_bound)`` of the next chunk in exact scan
        order, or ``None`` when every chunk has been emitted."""
        while True:
            top = self._top_unexpanded(self._group_heap)
            member_heap = self._member_heap
            if member_heap and (top is None or member_heap[0][0] < top[0]):
                # No unexpanded group can hold an earlier (key, id) pair:
                # their keys are all >= the group bound >= this key.  Ties
                # with a bound fall through to expansion first, preserving
                # the id tie-break of the flat lexsort.
                _, chunk_id, lb = heapq.heappop(member_heap)
                self._emitted.add(chunk_id)
                self._n_remaining -= 1
                return chunk_id, lb
            if top is None:
                return None
            heapq.heappop(self._group_heap)
            self._expand(top[1])

    def exact_remaining_lb(self) -> float:
        """Exact minimum lower bound over every unemitted chunk.

        Bit-equal to the flat ranking's suffix minimum at the same scan
        position (it is the minimum of the same float values); ``inf``
        once the stream is exhausted.
        """
        lb_heap = self._lb_heap
        emitted = self._emitted
        while True:
            while lb_heap and lb_heap[0][1] in emitted:
                heapq.heappop(lb_heap)
            best = lb_heap[0][0] if lb_heap else math.inf
            top = self._top_unexpanded(self._group_lb_heap)
            if top is None or best <= top[0]:
                # Every member of every unexpanded group has a lower bound
                # >= its group bound >= best, so best is the exact minimum.
                return best
            heapq.heappop(self._group_lb_heap)
            self._expand(top[1])
