"""Standalone outlier filter.

The paper removes outliers with BAG itself (small final clusters), but
notes an alternative it validated for the SR-tree path: "we tested another
simpler outlier removal scheme for the SR-tree, namely removing all
descriptors with total length greater than a constant, and that method gave
almost identical results" (section 5.2).

:func:`norm_fraction_outliers` is that scheme with the constant calibrated
to a target fraction; it returns the row positions to discard and callers
mask the collection before chunking.  The outlier-handling ablation
benchmark compares it with BAG's own removal end to end.
"""

from __future__ import annotations

import numpy as np

from ..core.dataset import DescriptorCollection

__all__ = ["norm_fraction_outliers", "apply_outlier_rows"]


def norm_fraction_outliers(
    collection: DescriptorCollection, fraction: float
) -> np.ndarray:
    """Rows of the ``fraction`` largest-norm descriptors (dtype intp).

    A convenience calibration of the constant-threshold scheme: choose the
    constant so that a target fraction (e.g. the 8-12 % BAG discards) is
    removed.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    n = len(collection)
    n_out = int(round(n * fraction))
    if n_out == 0:
        return np.empty(0, dtype=np.intp)
    norms = collection.norms()
    # Largest-norm rows; ties broken deterministically by row position.
    order = np.lexsort((np.arange(n), -norms))
    return np.sort(order[:n_out])


def apply_outlier_rows(
    collection: DescriptorCollection, outlier_rows: np.ndarray
) -> DescriptorCollection:
    """Collection with the given rows removed."""
    keep = np.ones(len(collection), dtype=bool)
    keep[np.asarray(outlier_rows, dtype=np.intp)] = False
    return collection.mask(keep)
