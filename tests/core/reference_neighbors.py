"""The heap-based top-k, kept verbatim as a differential oracle.

``NeighborSet`` (a bounded max-heap) and ``merge_neighbor_lists`` (a dict
of the best entry per id, then a full sort) exactly as they stood before
the sorted-array merge: every candidate that passes the k-th-distance
filter walks through a ``heapq`` one at a time (``offer``).
``test_neighbors.py`` asserts that the shipped set holds the same
neighbors, k-th distance and size and admits the same count per update,
and that the shipped merge returns the same list; ``replay_oracle.py``
replays traces with this set, so the oracle shares no code with the set
it checks.
"""

from __future__ import annotations

import heapq
import math
from typing import AbstractSet, List, Sequence, Tuple

import numpy as np

from repro.core.neighbors import Neighbor


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
    best: "dict[int, Neighbor]" = {}
    for part in lists:
        for neighbor in part:
            entry = Neighbor(neighbor[0], neighbor[1])
            held = best.get(entry.descriptor_id)
            if held is None or entry < held:
                best[entry.descriptor_id] = entry
    return sorted(best.values())[:k]


class NeighborSet:
    """The k best neighbors seen so far.

    Maintains a max-heap of at most ``k`` entries so that the worst current
    neighbor can be evicted in O(log k) when a better candidate arrives.
    Candidates that tie the current worst on distance are admitted only if
    their id is smaller, matching the deterministic ordering used by
    :func:`repro.core.distance.top_k_smallest` for ground truth.
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        # Heap entries are (-distance, -id): Python's min-heap then pops the
        # largest distance first, with larger ids evicted before smaller
        # ones on distance ties.
        self._heap: List[Tuple[float, int]] = []

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        """True once k neighbors have been collected."""
        return len(self._heap) >= self.k

    @property
    def kth_distance(self) -> float:
        """Distance to the current worst retained neighbor.

        Infinite while the set is not yet full, so every candidate is
        admitted during warm-up and the completion test never fires early.
        """
        if not self.is_full:
            return math.inf
        return -self._heap[0][0]

    def ids(self) -> np.ndarray:
        """Descriptor ids (int64) of the current neighbors, best first."""
        return np.asarray([n.descriptor_id for n in self.sorted()], dtype=np.int64)

    def sorted(self) -> List[Neighbor]:
        """Current neighbors ordered by (distance, id), best first."""
        items = sorted((-d, -i) for d, i in self._heap)
        return [Neighbor(d, i) for d, i in items]

    # -- updates ------------------------------------------------------------

    def _admits(self, distance: float, descriptor_id: int) -> bool:
        if not self.is_full:
            return True
        worst_d, worst_neg_id = -self._heap[0][0], self._heap[0][1]
        if distance < worst_d:
            return True
        return distance == worst_d and -descriptor_id > worst_neg_id

    def offer(self, distance: float, descriptor_id: int) -> bool:
        """Offer one candidate; returns True if it entered the set."""
        distance = float(distance)
        descriptor_id = int(descriptor_id)
        if not self._admits(distance, descriptor_id):
            return False
        entry = (-distance, -descriptor_id)
        if self.is_full:
            heapq.heapreplace(self._heap, entry)
        else:
            heapq.heappush(self._heap, entry)
        return True

    def update(self, distances: np.ndarray, descriptor_ids: np.ndarray) -> int:
        """Bulk-offer a chunk's worth of candidates; returns how many entered.

        This is the per-chunk hot path: it first filters candidates against
        the current k-th distance with one vectorized comparison, then walks
        only the survivors through the heap.
        """
        distances = np.asarray(distances, dtype=np.float64)
        descriptor_ids = np.asarray(descriptor_ids, dtype=np.int64)
        if distances.shape != descriptor_ids.shape:
            raise ValueError(
                f"distances shape {distances.shape} != ids shape {descriptor_ids.shape}"
            )
        threshold = self.kth_distance
        if math.isinf(threshold):
            candidates = np.arange(distances.shape[0])
        else:
            candidates = np.nonzero(distances <= threshold)[0]
        if candidates.size == 0:
            return 0
        # Process best-first so the threshold tightens as fast as possible.
        order = candidates[
            np.lexsort((descriptor_ids[candidates], distances[candidates]))
        ]
        admitted = 0
        for row in order:
            d = float(distances[row])
            if d > self.kth_distance:
                break  # sorted ascending: nothing later can enter
            if self.offer(d, int(descriptor_ids[row])):
                admitted += 1
        return admitted

    # -- set-style helpers ----------------------------------------------------

    def id_set(self) -> set:
        """Current neighbor ids as a Python set (for precision counting)."""
        return {-i for _, i in self._heap}

    def true_match_count(self, truth: AbstractSet[int]) -> int:
        """How many current neighbor ids appear in ``truth`` (a set).

        One C-level set intersection instead of a Python-level membership
        loop — this runs after every chunk of every query when ground truth
        is attached, for both the sequential and the batch search paths.
        """
        return len(self.id_set() & truth)

    def __contains__(self, descriptor_id: int) -> bool:
        return -int(descriptor_id) in {i for _, i in self._heap}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeighborSet(k={self.k}, size={len(self)}, kth={self.kth_distance:.6g})"
