"""Distance kernels for descriptor search.

All similarity in the reproduced paper is plain Euclidean distance in the
24-dimensional descriptor space (paper section 4.1: "similarity between
images is implemented as a nearest-neighbors search in a Euclidean space").

Two kernels carry the hot path.  :func:`pairwise_squared_distances` (the
expanded ``|q|^2 - 2 q.p + |p|^2`` form, one BLAS product per block) ranks
chunks, scans every chunk the search reads and computes batched ground
truth; :func:`squared_distances` (the direct ``(p - q)^2`` form) serves the
one-query sequential scan and the chunk radii.  Both are blockwise NumPy,
so collections far larger than the CPU cache are scanned without
materializing an ``n_queries x n_points`` matrix.  :func:`squared_norms`
computes the expanded form's norm terms exactly as the kernel does, so a
caller that keeps them and passes them back changes no bit.  The expanded
form's body, :func:`expanded_squared_distances`, checks nothing: the
searcher, which holds float64 rows and their norms, calls it directly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "squared_distances",
    "pairwise_squared_distances",
    "expanded_squared_distances",
    "squared_norms",
    "cell_squared_gaps",
    "top_k_smallest",
    "kth_smallest",
]

#: Block size (rows of the point matrix) used by the blockwise kernels.  At
#: 24 float32 dimensions a 65536-row block is ~6 MB, comfortably in L3.
BLOCK_ROWS = 65536


def _as_matrix(vectors: np.ndarray) -> np.ndarray:
    """Return ``vectors`` as a 2-D float array, promoting a single vector."""
    arr = np.asarray(vectors)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D vectors, got shape {arr.shape}")
    return arr


def squared_distances(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from one query vector to many points.

    Uses the direct ``sum((p - q)**2)`` formulation, which is numerically
    exact (no catastrophic cancellation), unlike the expanded
    ``|p|^2 - 2 p.q + |q|^2`` form.

    Non-float64 inputs (the collections are stored float32) are promoted
    blockwise: each block's float64 temporary is bounded instead of a full
    float64 copy of ``points`` being materialized per call.  Every row's
    reduction is independent of the blocking, so the result is bit-identical
    to promoting the whole matrix first.

    Parameters
    ----------
    query:
        A single vector of shape ``(d,)``.
    points:
        Matrix of shape ``(n, d)``.

    Returns
    -------
    ndarray of shape ``(n,)``, dtype float64.
    """
    points = _as_matrix(points)
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != points.shape[1]:
        raise ValueError(
            f"dimension mismatch: query has {query.shape[0]} dims, "
            f"points have {points.shape[1]}"
        )
    if points.dtype == np.float64 or points.shape[0] <= BLOCK_ROWS:
        diff = points.astype(np.float64, copy=False) - query
        return np.einsum("ij,ij->i", diff, diff)
    out = np.empty(points.shape[0], dtype=np.float64)
    for start in range(0, points.shape[0], BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, points.shape[0])
        diff = points[start:stop].astype(np.float64) - query
        np.einsum("ij,ij->i", diff, diff, out=out[start:stop])
    return out


def pairwise_squared_distances(
    queries: np.ndarray,
    points: np.ndarray,
    points_sq_norms: "np.ndarray | None" = None,
    queries_sq_norms: "np.ndarray | None" = None,
) -> np.ndarray:
    """Full ``(n_queries, n_points)`` float64 matrix of squared distances.

    Computed in blocks of :data:`BLOCK_ROWS` points to bound temporary
    memory, using the dot-product expansion ``|q|^2 - 2 q.p + |p|^2``
    (clamped at zero) so each block is one BLAS matmul.  This is the hot
    kernel of batched chunk ranking and batched chunk scans; it agrees
    with the direct form to ~1e-9 on descriptor-scale data but is not
    bit-identical to :func:`squared_distances` on near-duplicate pairs.

    ``points_sq_norms`` (shape ``(n_points,)``) and ``queries_sq_norms``
    (shape ``(n_queries,)``) optionally supply the ``|p|^2`` and ``|q|^2``
    terms, skipping their recomputation — e.g. the centroid norms a
    searcher computes once at construction, a resident chunk's memoized
    member norms, or a cohort's query norms shared by every call.  The
    result is unchanged, bit for bit, when they are :func:`squared_norms`
    of the same rows.

    This is shape checks and the queries' float64 promotion around
    :func:`expanded_squared_distances`, which callers that already hold
    float64 rows and their norms call directly.
    """
    queries = _as_matrix(queries).astype(np.float64, copy=False)
    points = _as_matrix(points)
    if queries.shape[1] != points.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries have {queries.shape[1]} dims, "
            f"points have {points.shape[1]}"
        )
    for norms, rows, what in (
        (points_sq_norms, points, "point"),
        (queries_sq_norms, queries, "query"),
    ):
        if norms is not None and norms.shape != (rows.shape[0],):
            raise ValueError(
                f"got {what} norms of shape {norms.shape} "
                f"for {rows.shape[0]} {what} rows"
            )
    return expanded_squared_distances(queries, points, queries_sq_norms, points_sq_norms)


def expanded_squared_distances(
    queries: np.ndarray,
    points: np.ndarray,
    queries_sq_norms: "np.ndarray | None",
    points_sq_norms: "np.ndarray | None",
) -> np.ndarray:
    """The body of :func:`pairwise_squared_distances`, unchecked: float64
    ``(n_queries, d)`` queries, ``(n_points, d)`` points of a float dtype
    (each block promoted to float64 as the product reads it) and their
    norm vectors, either computed here with :func:`squared_norms` when
    ``None`` (the points' one block at a time); returns the ``(n_queries,
    n_points)`` float64 matrix, bit for bit what the checked entry returns
    for the same arguments."""
    out = np.empty((queries.shape[0], points.shape[0]), dtype=np.float64)
    # |q - p|^2 = |q|^2 - 2 q.p + |p|^2: one BLAS matmul per block instead
    # of the 3-D broadcast temporary.  Cancellation can drive near-duplicate
    # pairs a few ulps below zero, so the result is clamped at zero.
    q_sq = squared_norms(queries) if queries_sq_norms is None else queries_sq_norms
    for start in range(0, points.shape[0], BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        block = points[start:stop].astype(np.float64, copy=False)
        if points_sq_norms is None:
            p_sq = squared_norms(block)
        else:
            p_sq = points_sq_norms[start:stop]
        segment = out[:, start:stop]
        np.matmul(queries, block.T, out=segment)
        segment *= -2.0
        segment += q_sq[:, np.newaxis]
        segment += p_sq[np.newaxis, :]
        np.maximum(segment, 0.0, out=segment)
    return out


def squared_norms(points: np.ndarray) -> np.ndarray:
    """``|p|^2`` of every row, float64: the terms
    :func:`pairwise_squared_distances` computes when none are supplied, bit
    for bit — ``einsum("pd,pd->p")`` over the float64-promoted rows, one
    block of :data:`BLOCK_ROWS` rows at a time (each row's sum is its own,
    so the blocking changes no bit)."""
    points = _as_matrix(points)
    if points.shape[0] <= BLOCK_ROWS:
        block = points.astype(np.float64, copy=False)
        return np.einsum("pd,pd->p", block, block)
    out = np.empty(points.shape[0], dtype=np.float64)
    for start in range(0, points.shape[0], BLOCK_ROWS):
        block = points[start : start + BLOCK_ROWS].astype(np.float64, copy=False)
        out[start : start + BLOCK_ROWS] = np.einsum("pd,pd->p", block, block)
    return out


def cell_squared_gaps(query: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Per dimension, the squared gap from ``query`` to each cell of a
    boundary table: ``(n_cells, d)`` float64.

    ``boundaries`` is ``(n_cells + 1, d)``, non-decreasing down each column;
    cell ``c`` of dimension ``j`` is ``[boundaries[c, j], boundaries[c + 1,
    j]]`` and its entry ``max(boundaries[c, j] - q_j, q_j - boundaries[c + 1,
    j], 0) ** 2`` — never more than ``(q_j - p_j) ** 2`` for a ``p_j`` in the
    cell.  Summed along a descriptor's cell numbers: the VA-file's and the
    chunk pruner's lower bound.
    """
    query = np.asarray(query, dtype=np.float64)
    boundaries = np.asarray(boundaries, dtype=np.float64)
    gaps: np.ndarray = np.maximum(boundaries[:-1] - query, query - boundaries[1:])
    np.maximum(gaps, 0.0, out=gaps)
    return np.square(gaps, out=gaps)


def top_k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices (dtype intp) of the ``k`` smallest values, sorted
    ascending by value.

    Ties are broken by index (stable), which keeps ground-truth neighbor
    lists deterministic across runs: the result is exactly the first ``k``
    of ``np.argsort(values, kind="stable")``, NaN last.
    """
    values = np.asarray(values)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    n = values.shape[0]
    if k >= n:
        return np.argsort(values, kind="stable")
    candidates = np.flatnonzero(~(values > kth_smallest(values, k)))
    return candidates[np.argsort(values[candidates], kind="stable")[:k]]


def kth_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """The ``k``-th smallest value along the last axis, kept as an axis of
    length one (so ``values > kth_smallest(values, k)`` broadcasts per row);
    dtype that of ``values``.

    The threshold of an exact top-``k``: the first ``k`` of the stable
    (value, position) order all lie in ``~(values > t)`` — every tie at
    ``t`` and any NaN included (``np.partition`` sorts NaN last, and
    nothing compares greater than NaN) — so a stable sort of those
    candidates alone, kept in their original order, begins with the same
    ``k``.  ``argpartition`` alone would be O(n) too, but its choice among
    ties at the ``k``-th value is arbitrary.
    """
    return np.partition(values, k - 1, axis=-1)[..., k - 1 : k]

