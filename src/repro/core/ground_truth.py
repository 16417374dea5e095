"""Exact nearest-neighbor ground truth via sequential scan.

Paper section 5.4: "To measure precision, we first ran a sequential scan of
the collection, and stored the identifiers of the returned descriptors in a
file.  We then read this file for each measurement and used the descriptor
list to calculate the precision of the intermediate result."

:func:`exact_knn` is the sequential scan; :class:`GroundTruthStore` holds
the per-query id lists in memory — the experiments compute them once per
workload in process, so no file is written or read.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .dataset import DescriptorCollection
from .distance import (
    BLOCK_ROWS,
    kth_smallest,
    pairwise_squared_distances,
    squared_distances,
    squared_norms,
    top_k_smallest,
)

__all__ = ["exact_knn", "exact_knn_batch", "GroundTruthStore"]


def exact_knn(
    collection: DescriptorCollection,
    query: np.ndarray,
    k: int,
) -> np.ndarray:
    """Ids (int64) of the exact ``k`` nearest descriptors, best first.

    Scans the collection in blocks of
    :data:`~repro.core.distance.BLOCK_ROWS` rows; exact, deterministic
    (ties broken by ascending id as in
    :func:`~repro.core.distance.top_k_smallest`).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n = len(collection)
    if n == 0:
        raise ValueError("cannot search an empty collection")
    query = np.asarray(query, dtype=np.float64).reshape(-1)

    best_d = np.empty(0, dtype=np.float64)
    best_ids = np.empty(0, dtype=np.int64)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        d = squared_distances(query, collection.vectors[start:stop])
        ids = collection.ids[start:stop]
        merged_d = np.concatenate([best_d, d])
        merged_ids = np.concatenate([best_ids, ids])
        keep = top_k_smallest(merged_d, min(k, merged_d.shape[0]))
        # top_k_smallest ties break on array position; enforce id order by
        # re-sorting the kept slice on (distance, id).
        keep = keep[np.lexsort((merged_ids[keep], merged_d[keep]))]
        best_d = merged_d[keep]
        best_ids = merged_ids[keep]
    return best_ids


def exact_knn_batch(
    collection: DescriptorCollection,
    queries: np.ndarray,
    k: int,
) -> np.ndarray:
    """Exact k-NN ids for a batch of queries; shape ``(n_queries, k)``, int64.

    The whole batch shares each blockwise pass over the collection: one
    :func:`~repro.core.distance.pairwise_squared_distances` kernel call per
    block instead of ``n_queries`` scalar scans.  The running top-k is
    merged per block by selecting, in every row, the candidates not above
    the row's k-th distance (:func:`~repro.core.distance.kth_smallest`)
    and lexsorting only those on (row, distance, id) — the first k of each
    row are those a full lexsort of the row would give.  Ties break by
    ascending id, matching :func:`exact_knn`.  Requires
    ``k <= len(collection)``.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[np.newaxis, :]
    if k > len(collection):
        raise ValueError(f"k={k} exceeds collection size {len(collection)}")
    n_q, n = queries.shape[0], len(collection)
    if n_q == 0:
        return np.empty((0, k), dtype=np.int64)

    # The queries' |q|^2 terms, shared by every block's kernel call.
    queries_sq_norms = squared_norms(queries)
    best_d = np.empty((n_q, 0), dtype=np.float64)
    best_ids = np.empty((n_q, 0), dtype=np.int64)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        d = pairwise_squared_distances(
            queries, collection.vectors[start:stop], queries_sq_norms=queries_sq_norms
        )
        ids = np.broadcast_to(collection.ids[start:stop], d.shape)
        merged_d = np.concatenate([best_d, d], axis=1)
        merged_ids = np.concatenate([best_ids, ids], axis=1)
        kept = min(k, merged_d.shape[1])
        # Row-major, so each row's candidates stay in column order and
        # occupy one run; every row has at least ``kept`` of them.
        rows, cols = np.nonzero(~(merged_d > kth_smallest(merged_d, kept)))
        cand_d, cand_ids = merged_d[rows, cols], merged_ids[rows, cols]
        order = np.lexsort((cand_ids, cand_d, rows))
        run_starts = np.searchsorted(rows, np.arange(n_q))
        keep = order[run_starts[:, np.newaxis] + np.arange(kept)]
        best_d, best_ids = cand_d[keep], cand_ids[keep]
    return best_ids


class GroundTruthStore:
    """Per-query true-neighbor id lists."""

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)
        self._lists: Dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._lists)

    def put(self, query_index: int, neighbor_ids: Sequence[int]) -> None:
        ids = np.asarray(neighbor_ids, dtype=np.int64)
        if ids.shape != (self.k,):
            raise ValueError(f"expected exactly {self.k} ids, got shape {ids.shape}")
        self._lists[int(query_index)] = ids

    def get(self, query_index: int) -> np.ndarray:
        """Stored neighbor ids (int64) for one query, best first."""
        try:
            return self._lists[int(query_index)]
        except KeyError:
            raise KeyError(f"no ground truth stored for query {query_index}") from None

    def __contains__(self, query_index: int) -> bool:
        return int(query_index) in self._lists

    @classmethod
    def compute(
        cls,
        collection: DescriptorCollection,
        queries: np.ndarray,
        k: int,
    ) -> "GroundTruthStore":
        """Run the sequential scan for every query and store the ids."""
        store = cls(k)
        ids = exact_knn_batch(collection, queries, k)
        for i in range(ids.shape[0]):
            store.put(i, ids[i])
        return store
