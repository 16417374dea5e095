"""Approximate VA-file scan (related work).

Weber & Böhm: "Trading quality for time with nearest neighbor search",
EDBT 2000 — the paper's related work describes it as interrupting the
search "after having accessed an arbitrary, predetermined and fixed number
of chunks"; the underlying structure is the vector-approximation file
(Weber, Schek, Blott, VLDB 1998):

* every dimension is quantized into ``2**BITS_PER_DIMENSION`` cells with
  equi-populated boundaries;
* each descriptor is approximated by its cell signature;
* a query scans all signatures, computing per-descriptor lower bounds on
  the true distance, then refines the most promising candidates with exact
  distances.

The approximate variant bounds the refinement: only the
``refine_candidates`` best lower bounds are refined, trading result
quality for a fixed amount of exact-distance work.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.dataset import DescriptorCollection
from ..core.distance import cell_squared_gaps, squared_distances

__all__ = ["VAFile", "BITS_PER_DIMENSION"]

#: Signature resolution: ``2**BITS_PER_DIMENSION`` quantization cells per
#: dimension.
BITS_PER_DIMENSION = 4


class VAFile:
    """Vector-approximation file with bounded-refinement search.

    Parameters
    ----------
    collection:
        Descriptors to index.
    """

    def __init__(self, collection: DescriptorCollection):
        if len(collection) == 0:
            raise ValueError("cannot index an empty collection")
        self.collection = collection
        n_cells = 2**BITS_PER_DIMENSION
        vectors = collection.vectors.astype(np.float64)
        d = collection.dimensions
        # Equi-populated cell boundaries per dimension: n_cells+1 marks.
        quantiles = np.linspace(0.0, 1.0, n_cells + 1)
        self._boundaries = np.quantile(vectors, quantiles, axis=0)  # (cells+1, d)
        # Guard the outer marks so every value falls inside some cell.
        self._boundaries[0] -= 1e-9
        self._boundaries[-1] += 1e-9
        # One row per dimension: a query sums its per-dimension cell gaps
        # down the rows, in dimension order.
        self._signatures = np.empty((d, len(collection)), dtype=np.int32)
        for dim in range(d):
            self._signatures[dim] = np.searchsorted(
                self._boundaries[1:-1, dim], vectors[:, dim], side="right"
            )

    def _lower_bounds(self, query: np.ndarray) -> np.ndarray:
        """Squared lower bound per descriptor from cell geometry (float64)."""
        per_dim = cell_squared_gaps(query, self._boundaries)  # (cells, d)
        dims = np.arange(self.collection.dimensions)[:, np.newaxis]
        contributions: np.ndarray = per_dim[self._signatures, dims]  # (d, n)
        return contributions.sum(axis=0)

    def search(
        self,
        query: np.ndarray,
        k: int = 1,
        refine_candidates: int = 0,
    ) -> List[int]:
        """Approximate k-NN.

        Parameters
        ----------
        refine_candidates:
            How many of the best lower-bound candidates get an exact
            distance evaluation.  ``0`` means exact mode: refine until the
            next lower bound exceeds the current k-th exact distance (the
            classic VA-file algorithm, guaranteed exact).
        """
        if k < 1:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.collection.dimensions:
            raise ValueError("query dimensionality mismatch")
        n = len(self.collection)
        k = min(k, n)

        bounds = self._lower_bounds(query)
        order = np.lexsort((np.arange(n), bounds))

        best_d: List[float] = []
        best_rows: List[int] = []

        def kth() -> float:
            return best_d[-1] if len(best_d) >= k else np.inf

        budget = n if refine_candidates <= 0 else min(refine_candidates, n)
        refined = 0
        for row in order:
            if refined >= budget:
                break
            if refine_candidates <= 0 and bounds[row] > kth():
                break  # exactness proof for the unbounded variant
            d2 = float(
                squared_distances(query, self.collection.vectors[row : row + 1])[0]
            )
            refined += 1
            if len(best_d) < k or d2 < kth():
                # Insert in sorted order (k is small).
                position = np.searchsorted(best_d, d2)
                best_d.insert(position, d2)
                best_rows.insert(position, int(row))
                if len(best_d) > k:
                    best_d.pop()
                    best_rows.pop()
        return [int(self.collection.ids[row]) for row in best_rows]
