"""Brute-force k-NN reference, independent of the program's search code.

Two stages, both float64 and blocked.  Stage one ranks every descriptor
by the expanded form ``|p|^2 - 2 p.q`` (one matmul per block) and keeps
a generous candidate set; stage two recomputes the candidates' distances
in the direct form ``sqrt(sum((p - q)^2))`` — the arithmetic the program
itself promises — and orders them by ``(distance, id)``.  The expanded
form errs by ~1e-9 on unit-box data, so the true top ``k`` can only fall
outside ``4k`` candidates if more than ``3k`` points sit within that of
the k-th distance.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ROWS = 16384
_CANDIDATE_FACTOR = 4


def brute_force_knn(
    vectors: np.ndarray, ids: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    """Ids of the exact ``k`` nearest rows per query, best first, ties by
    ascending id; shape ``(n_queries, k)``, int64."""
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    n, n_q = vectors.shape[0], queries.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the collection size {n}")
    keep = min(n, _CANDIDATE_FACTOR * k)
    cand_key = np.full((n_q, keep), np.inf)
    cand_row = np.zeros((n_q, keep), dtype=np.int64)
    for start in range(0, n, _BLOCK_ROWS):
        block = vectors[start : start + _BLOCK_ROWS].astype(np.float64)
        key = np.einsum("pd,pd->p", block, block)[np.newaxis, :] - 2.0 * (
            queries @ block.T
        )
        rows = np.broadcast_to(
            np.arange(start, start + block.shape[0], dtype=np.int64), key.shape
        )
        merged_key = np.concatenate([cand_key, key], axis=1)
        merged_row = np.concatenate([cand_row, rows], axis=1)
        part = np.argpartition(merged_key, keep - 1, axis=1)[:, :keep]
        cand_key = np.take_along_axis(merged_key, part, axis=1)
        cand_row = np.take_along_axis(merged_row, part, axis=1)

    result = np.empty((n_q, k), dtype=np.int64)
    for q in range(n_q):
        rows = cand_row[q]
        diff = vectors[rows].astype(np.float64) - queries[q]
        distance = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        best = np.lexsort((ids[rows], distance))[:k]
        result[q] = ids[rows][best]
    return result
