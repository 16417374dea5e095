"""Bounded nearest-neighbor result set.

The search algorithm of the paper (section 4.3) keeps "the current set of
neighbors" while scanning chunks and needs two operations on it:

* bulk update with all descriptors of a freshly processed chunk, and
* the distance to the current k-th neighbor, which drives the exact
  completion test (stop when the minimum distance to the next chunk exceeds
  the distance to the k-th neighbor).

:class:`NeighborSet` keeps the neighbors as two arrays sorted by distance
with deterministic tie-breaking on descriptor id, so that
intermediate-result precision measurements are reproducible, and merges a
chunk in with a few whole-array operations instead of one candidate at a
time.
"""

from __future__ import annotations

import math
from typing import AbstractSet, List, Sequence, Tuple

import numpy as np

__all__ = ["Neighbor", "NeighborSet", "merge_neighbor_lists"]


class Neighbor(Tuple[float, int]):
    """A ``(distance, descriptor_id)`` pair, ordered by distance then id."""

    __slots__ = ()

    def __new__(cls, distance: float, descriptor_id: int) -> "Neighbor":
        return tuple.__new__(cls, (float(distance), int(descriptor_id)))

    @property
    def distance(self) -> float:
        return self[0]

    @property
    def descriptor_id(self) -> int:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Neighbor(distance={self[0]:.6g}, id={self[1]})"


def _as_neighbors(distances: np.ndarray, ids: np.ndarray) -> List[Neighbor]:
    # float64 and int64 ``tolist()`` entries are already Python floats and
    # ints: skip ``Neighbor.__new__``'s conversions.
    new = tuple.__new__
    return [new(Neighbor, pair) for pair in zip(distances.tolist(), ids.tolist())]


def merge_neighbor_lists(
    lists: Sequence[Sequence[Neighbor]], k: int
) -> List[Neighbor]:
    """Exact k-way merge of per-partition top-k lists.

    Because ``(distance, id)`` is a total order, the exact top-k of a
    descriptor set is *unique*, and the top-k of a union is contained in
    the union of the parts' top-k's.  Merging the per-partition exact
    lists therefore reproduces the single-node exact answer bit for bit
    — the property the sharded scatter-gather coordinator relies on.

    Duplicate descriptor ids (e.g. both answers of a hedged pair, which
    executed the *same* partition) are collapsed to their best entry, so
    the merge is idempotent.  Empty inputs merge cleanly: fewer than
    ``k`` total candidates yield a shorter list, never an error — a
    partial merge is the honest answer under shard loss.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    entries = [neighbor for part in lists for neighbor in part]
    distances = np.array([n[0] for n in entries], dtype=np.float64)
    ids = np.array([n[1] for n in entries], dtype=np.int64)
    order = np.lexsort((ids, distances))
    # An id's best entry is its first in (distance, id) order.
    _, first = np.unique(ids[order], return_index=True)
    order = order[np.sort(first)[:k]]
    return _as_neighbors(distances[order], ids[order])


class NeighborSet:
    """The k best neighbors seen so far.

    Two arrays of at most ``k`` entries, distances (float64) and ids
    (int64), sorted by (distance, id) — the deterministic ordering used by
    :func:`repro.core.distance.top_k_smallest` for ground truth.  After
    each :meth:`update` they hold the top k of held ∪ candidates under
    that order, so a candidate that ties the k-th distance enters only
    with a smaller id.
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._distances = np.empty(0, dtype=np.float64)
        self._ids = np.empty(0, dtype=np.int64)

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return self._ids.shape[0]

    @property
    def kth_distance(self) -> float:
        """Distance to the current worst retained neighbor.

        Infinite while the set is not yet full, so every candidate is
        admitted during warm-up and the completion test never fires early.
        """
        if self._ids.shape[0] < self.k:
            return math.inf
        return float(self._distances[-1])

    def sorted(self) -> List[Neighbor]:
        """Current neighbors ordered by (distance, id), best first."""
        return _as_neighbors(self._distances, self._ids)

    # -- updates ------------------------------------------------------------

    def update(self, distances: np.ndarray, descriptor_ids: np.ndarray) -> int:
        """Merge a chunk's worth of candidates in; returns how many entered.

        The per-chunk hot path, one vectorised merge: the candidates that
        can still enter (at or below the k-th distance; while the set is
        not full, at or below the k-th smallest candidate) are sorted
        together with the held entries once and cut to k.  The count is
        the number of new entries kept.  The sort is stable with the held
        entries first, so a candidate equal to a held entry in distance
        and id never displaces it.
        """
        distances = np.asarray(distances, dtype=np.float64)
        descriptor_ids = np.asarray(descriptor_ids, dtype=np.int64)
        if distances.shape != descriptor_ids.shape:
            raise ValueError(
                f"distances shape {distances.shape} != ids shape {descriptor_ids.shape}"
            )
        k, held = self.k, self._ids.shape[0]
        if held == k:
            keep = distances <= self._distances[-1]
        elif distances.shape[0] > k:
            # ``~(d > t)``, not ``d <= t``: a NaN reaches the sort too, which
            # places it last, as a full sort would.
            keep = ~(distances > np.partition(distances, k - 1)[k - 1])
        else:
            keep = None
        if keep is not None:
            distances, descriptor_ids = distances[keep], descriptor_ids[keep]
        if not distances.shape[0]:
            return 0
        merged_distances = np.concatenate((self._distances, distances))
        merged_ids = np.concatenate((self._ids, descriptor_ids))
        order = np.lexsort((merged_ids, merged_distances))[:k]
        self._distances, self._ids = merged_distances[order], merged_ids[order]
        return int(np.count_nonzero(order >= held))

    # -- set-style helpers ----------------------------------------------------

    def id_set(self) -> set:
        """Current neighbor ids as a Python set (for precision counting)."""
        return set(self._ids.tolist())

    def true_match_count(self, truth: AbstractSet[int]) -> int:
        """How many current neighbor ids appear in ``truth`` (a set).

        One C-level set intersection instead of a Python-level membership
        loop — this runs after every admitting chunk of every query when
        ground truth is attached.
        """
        return len(self.id_set() & truth)

    def __contains__(self, descriptor_id: int) -> bool:
        return int(descriptor_id) in self.id_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeighborSet(k={self.k}, size={len(self)}, kth={self.kth_distance:.6g})"
