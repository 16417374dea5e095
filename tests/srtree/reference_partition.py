"""The recursive static partition, kept verbatim as a differential oracle.

This is the static partition of ``repro.srtree.bulk_load`` exactly as it
stood before the in-place rewrite (ISSUE 20): a float64 copy of the whole
input, one fancy-index gather per node, ``ndarray.var`` for the split
dimension and a stable ``argsort`` for the cut.  It is slow, peaks at six
times the collection and leaks its working copy into a reference cycle
(``recurse`` closes over itself) — none of which matters to a test, and
all of which is why it only lives here.  ``test_static_build.py`` asserts
that the shipped routine returns the same member rows in the same order.
"""

from typing import List

import numpy as np


def reference_partition_rows_uniform(
    vectors: np.ndarray, leaf_capacity: int
) -> List[np.ndarray]:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("need a non-empty (n, d) matrix")
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be at least 1")

    groups: List[np.ndarray] = []

    def recurse(rows: np.ndarray) -> None:
        n = rows.shape[0]
        if n <= leaf_capacity:
            groups.append(rows)
            return
        axis = int(np.argmax(vectors[rows].var(axis=0)))
        order = rows[np.argsort(vectors[rows, axis], kind="stable")]
        n_leaves = -(-n // leaf_capacity)  # leaves this group still needs
        left_leaves = n_leaves // 2
        cut = left_leaves * leaf_capacity
        recurse(order[:cut])
        recurse(order[cut:])

    recurse(np.arange(vectors.shape[0], dtype=np.intp))
    return groups
