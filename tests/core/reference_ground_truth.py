"""The full-sort ground truth, kept verbatim as a differential oracle.

``top_k_smallest``, ``exact_knn`` and ``exact_knn_batch`` exactly as they
stood before the threshold selection: every block's whole candidate list
goes through a stable ``argsort`` (one query) or a ``lexsort`` (a batch),
only to keep ``k`` ids.  They are slow at collection scale — which is why
they only live here.  ``test_ground_truth_ties.py`` asserts that the
shipped functions return the same ids, ties and NaN included.

``BLOCK_ROWS`` is this module's own, so a test that shrinks the shipped
block size shrinks this one to match.
"""

import numpy as np

from repro.core.dataset import DescriptorCollection
from repro.core.distance import (
    BLOCK_ROWS,
    pairwise_squared_distances,
    squared_distances,
)


def top_k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices (dtype intp) of the ``k`` smallest values, sorted
    ascending by value.

    Ties are broken by index (stable), which keeps ground-truth neighbor
    lists deterministic across runs.
    """
    values = np.asarray(values)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    n = values.shape[0]
    if k >= n:
        return np.argsort(values, kind="stable")
    # argpartition would be O(n), but its choice among values tied with the
    # k-th is arbitrary, breaking index-order determinism on ties; the
    # stable full sort guarantees (value, index) order.  This function is
    # not on the per-chunk hot path (NeighborSet is), so O(n log n) is fine.
    return np.argsort(values, kind="stable")[:k]


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
    block instead of ``n_queries`` scalar scans, with the running top-k
    merged by a batched lexsort.  Ties break by ascending id, matching
    :func:`exact_knn`.  Requires ``k <= len(collection)``.
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

    best_d = np.empty((n_q, 0), dtype=np.float64)
    best_ids = np.empty((n_q, 0), dtype=np.int64)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        d = pairwise_squared_distances(queries, collection.vectors[start:stop])
        ids = np.broadcast_to(collection.ids[start:stop], d.shape)
        merged_d = np.concatenate([best_d, d], axis=1)
        merged_ids = np.concatenate([best_ids, ids], axis=1)
        keep = np.lexsort((merged_ids, merged_d), axis=-1)[
            :, : min(k, merged_d.shape[1])
        ]
        best_d = np.take_along_axis(merged_d, keep, axis=1)
        best_ids = np.take_along_axis(merged_ids, keep, axis=1)
    return best_ids
