"""Chunk model.

A *chunk* is the unit of the paper's index architecture (section 4.2): a
group of descriptors stored contiguously on disk, padded to full disk
pages, and summarized in the index file by its centroid, its minimum
bounding radius, and its location in the chunk file — plus, beyond the
paper, the exact bounding rectangle of its members, which the host-side
pruner intersects with the sphere (DESIGN §5, "The rectangle bound").

Two layers are distinguished here:

* :class:`Chunk` — the logical chunk as produced by a chunk-forming
  strategy: the member rows of the source collection plus the derived
  centroid/radius summary.
* :class:`ChunkMeta` — the physical index entry: centroid, radius,
  member rectangle, descriptor count, and page extent in the chunk file.
  This is what the search algorithm ranks and what
  :mod:`repro.storage.index_file` serializes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, List, Sequence

import numpy as np

from .dataset import DescriptorCollection
from .distance import squared_distances

__all__ = [
    "Chunk",
    "ChunkMeta",
    "ChunkSet",
    "summarize_members",
    "bounding_radius",
    "bounding_rectangle",
]


def summarize_members(vectors: np.ndarray) -> "tuple[np.ndarray, float]":
    """Centroid and minimum bounding radius of a member matrix.

    The radius is the maximum Euclidean distance from the centroid to any
    member — the "minimum bounding radius" the paper stores per chunk so the
    search can lower-bound the distance to a chunk's contents.  A NaN or
    infinite member makes the radius non-finite, which
    :func:`bounding_radius` refuses.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("a chunk must contain at least one descriptor")
    centroid = vectors.mean(axis=0)
    return centroid, bounding_radius(centroid, vectors)


def bounding_radius(centroid: np.ndarray, vectors: np.ndarray) -> float:
    """Maximum Euclidean distance from ``centroid`` to any row of
    ``vectors`` (float32 rows are promoted exactly), refused when it is
    not finite: every bound the search derives from it would be void."""
    radius = float(np.sqrt(squared_distances(centroid, vectors).max()))
    if not math.isfinite(radius):
        raise ValueError(
            "chunk members have a non-finite component "
            f"(bounding radius {radius})"
        )
    return radius


def bounding_rectangle(vectors: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Per-dimension ``(lower, upper)`` of a member matrix, both float64.

    Minimum and maximum involve no arithmetic, so the rectangle is *exact*
    — every member lies inside it with no tolerance — and, members being
    stored float32, each bound is itself float32-representable (the index
    file keeps it in four bytes without widening it).  The reduction runs
    over a contiguous transpose: row-wise ``min``/``max`` of a ``(d, n)``
    matrix is several times cheaper than ``axis=0`` of the ``(n, d)`` one.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("a chunk must contain at least one descriptor")
    columns = np.ascontiguousarray(vectors.T)
    return (
        columns.min(axis=1).astype(np.float64),
        columns.max(axis=1).astype(np.float64),
    )


@dataclasses.dataclass
class Chunk:
    """A logical chunk: member rows of a collection plus its summary.

    Attributes
    ----------
    member_rows:
        Row positions into the source :class:`DescriptorCollection`.
    centroid:
        Mean of the member vectors (float64).
    radius:
        Minimum bounding radius around ``centroid``.
    """

    member_rows: np.ndarray
    centroid: np.ndarray
    radius: float

    @classmethod
    def from_rows(
        cls, collection: DescriptorCollection, member_rows: Sequence[int]
    ) -> "Chunk":
        """Build a chunk from row positions, deriving centroid and radius."""
        rows = np.asarray(member_rows, dtype=np.intp)
        if rows.size == 0:
            raise ValueError("a chunk must contain at least one descriptor")
        centroid, radius = summarize_members(collection.vectors[rows])
        return cls(member_rows=rows, centroid=centroid, radius=radius)

    def __len__(self) -> int:
        return int(self.member_rows.size)

    def member_ids(self, collection: DescriptorCollection) -> np.ndarray:
        """Descriptor ids (int64) of this chunk's members."""
        return collection.ids[self.member_rows]

    def contains_all_members(self, collection: DescriptorCollection) -> bool:
        """Invariant check: every member lies within ``radius`` of ``centroid``.

        A small epsilon absorbs float32->float64 rounding on the member
        vectors.
        """
        vectors = collection.vectors[self.member_rows]
        d2 = squared_distances(self.centroid, vectors)
        return bool(np.all(np.sqrt(d2) <= self.radius * (1 + 1e-9) + 1e-9))


@dataclasses.dataclass(frozen=True)
class ChunkMeta:
    """Index-file entry for one chunk (paper section 4.2).

    ``page_offset``/``page_count`` locate the chunk in the chunk file; they
    are filled in by the chunk-file writer.  ``chunk_id`` is the position of
    the entry, which by construction equals the position of the chunk in
    the chunk file ("the order of the entries in the index is identical to
    the order of the chunks in the chunk file").

    ``lower``/``upper`` (float64, shape ``(d,)``) bound every member per
    dimension — :func:`bounding_rectangle` of the members wherever a
    summary is computed.  The completion proof never reads them; the
    pruner does (:meth:`ChunkSearcher.rectangle_bounds
    <repro.core.search.ChunkSearcher.rectangle_bounds>`).
    """

    chunk_id: int
    centroid: np.ndarray
    radius: float
    lower: np.ndarray
    upper: np.ndarray
    n_descriptors: int
    page_offset: int
    page_count: int

    def __post_init__(self) -> None:
        for name in ("centroid", "lower", "upper"):
            object.__setattr__(
                self,
                name,
                np.ascontiguousarray(getattr(self, name), dtype=np.float64),
            )
        if not self.lower.shape == self.upper.shape == self.centroid.shape:
            raise ValueError("rectangle and centroid must share one shape")
        if not (self.lower <= self.upper).all():
            raise ValueError("rectangle lower bound exceeds its upper bound")
        if self.n_descriptors <= 0:
            raise ValueError("a chunk holds at least one descriptor")
        if self.radius < 0:
            raise ValueError("radius cannot be negative")
        if self.page_offset < 0 or self.page_count <= 0:
            raise ValueError("invalid page extent")


class ChunkSet:
    """An ordered list of logical chunks over one collection.

    This is the output contract of every chunk-forming strategy in
    :mod:`repro.chunking`: a partition (or sub-partition, when outliers were
    discarded) of the collection's rows.
    """

    def __init__(self, collection: DescriptorCollection, chunks: Sequence[Chunk]):
        self.collection = collection
        self.chunks: List[Chunk] = list(chunks)
        if not self.chunks:
            raise ValueError("a chunk set must contain at least one chunk")

    def __len__(self) -> int:
        return len(self.chunks)

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self.chunks)

    def __getitem__(self, index: int) -> Chunk:
        return self.chunks[index]

    # -- statistics (these feed Table 1 and Figure 1) ----------------------

    def sizes(self) -> np.ndarray:
        """Descriptor count of every chunk, dtype int64."""
        return np.asarray([len(c) for c in self.chunks], dtype=np.int64)

    def average_size(self) -> float:
        """Average descriptors per chunk (Table 1's "Descriptors per Chunk")."""
        return float(self.sizes().mean())

    def largest_sizes(self, n: int = 30) -> np.ndarray:
        """Sizes (int64) of the ``n`` largest chunks, descending (Figure 1)."""
        sizes = np.sort(self.sizes())[::-1]
        return sizes[:n]

    # -- invariants ---------------------------------------------------------

    def is_partition(self) -> bool:
        """True if every collection row appears in exactly one chunk."""
        seen = np.concatenate([c.member_rows for c in self.chunks])
        if seen.size != len(self.collection):
            return False
        return bool(np.array_equal(np.sort(seen), np.arange(len(self.collection))))

    def validate(self) -> None:
        """Raise ``ValueError`` on any violated chunk invariant."""
        all_rows = np.concatenate([c.member_rows for c in self.chunks])
        if np.unique(all_rows).size != all_rows.size:
            raise ValueError("a descriptor row appears in more than one chunk")
        if all_rows.size and (all_rows.min() < 0 or all_rows.max() >= len(self.collection)):
            raise ValueError("chunk member rows out of collection bounds")
        for i, chunk in enumerate(self.chunks):
            if not chunk.contains_all_members(self.collection):
                raise ValueError(f"chunk {i}: member outside bounding radius")
