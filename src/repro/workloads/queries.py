"""Query workloads (paper section 5.3).

Two workloads model the two retrieval situations:

* **DQ — dataset queries**: "1,000 randomly selected descriptors from the
  descriptor collection", simulating queries with a good match.
* **SQ — space queries**: for each dimension the value range is computed
  after "discarding the top and bottom 5 %", then queries are drawn
  uniformly from the per-dimension ranges — simulating queries with no
  match in the collection.

The paper ran each query once against each chunk index in round-robin
order to defeat buffering; the simulated disk has no buffer cache, so a
simple per-index loop is equivalent.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

from ..core.dataset import DescriptorCollection

__all__ = [
    "Workload",
    "dataset_queries",
    "space_queries",
    "TRIM_FRACTION",
]

#: The paper discards the top and bottom 5 % per dimension for SQ.
TRIM_FRACTION = 0.05


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named batch of query descriptors.

    ``source_rows`` maps each query to the collection row it was sampled
    from (DQ only; -1 for generated queries).
    """

    name: str
    queries: np.ndarray
    source_rows: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "queries", np.ascontiguousarray(self.queries, dtype=np.float64)
        )
        object.__setattr__(
            self, "source_rows", np.ascontiguousarray(self.source_rows, dtype=np.int64)
        )
        if self.queries.ndim != 2:
            raise ValueError("queries must be a (n, d) matrix")
        if self.source_rows.shape != (self.queries.shape[0],):
            raise ValueError("source_rows must parallel the queries")

    def __len__(self) -> int:
        return self.queries.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.queries)


def dataset_queries(
    collection: DescriptorCollection,
    n_queries: int,
    seed: int = 0,
) -> Workload:
    """The DQ workload: descriptors sampled from the collection itself."""
    if n_queries < 1:
        raise ValueError("need at least one query")
    if len(collection) == 0:
        raise ValueError("cannot sample queries from an empty collection")
    rng = np.random.default_rng(seed)
    replace = n_queries > len(collection)
    rows = rng.choice(len(collection), size=n_queries, replace=replace)
    return Workload(
        name="DQ",
        queries=collection.vectors[rows].astype(np.float64),
        source_rows=rows.astype(np.int64),
    )


def space_queries(
    collection: DescriptorCollection,
    n_queries: int,
    seed: int = 0,
) -> Workload:
    """The SQ workload: uniform draws from per-dimension ranges trimmed by
    :data:`TRIM_FRACTION`."""
    if n_queries < 1:
        raise ValueError("need at least one query")
    ranges = collection.dimension_ranges(TRIM_FRACTION)
    rng = np.random.default_rng(seed)
    queries = rng.uniform(
        ranges[:, 0], ranges[:, 1], size=(n_queries, collection.dimensions)
    )
    return Workload(
        name="SQ",
        queries=queries,
        source_rows=np.full(n_queries, -1, dtype=np.int64),
    )

