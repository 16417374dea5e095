"""The chunk maintainer's apply path before its in-place updates, kept
verbatim as a differential oracle.

``insert``, ``delete`` and ``_refresh_centroid`` of
:class:`~repro.core.maintenance.ChunkIndexMaintainer`, and ``append``,
``_resum`` and ``centroid`` of its ``_MutableChunk``, exactly as they
stood when an insert found its chunk through the checked
``squared_distances`` and every centroid row was replaced by a freshly
divided copy.  Every sum, at construction and after a split too, is
this module's ``_resum``.  Everything else — the split's 2-means, merge,
drop, snapshots — is the shipped code, so the oracle differs from the
maintainer in exactly the arithmetic that was made lean.  ``test_maintenance_oracle.py`` drives both with the same
operations and compares every byte of state after each.

The structural thresholds are this module's own imports of the shipped
constants: a test forces splits and merges through ``target_chunk_size``,
not by patching them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.distance import squared_distances
from repro.core.maintenance import (
    MERGE_FRACTION,
    SPLIT_FACTOR,
    ChunkIndexMaintainer,
    _MutableChunk,
)


class ReferenceChunk(_MutableChunk):
    """A maintained chunk that sums and appends as the parent did."""

    __slots__ = ()

    def centroid(self) -> np.ndarray:
        """Exact float64 mean of the members, in member order (a new
        array)."""
        return self._sum / len(self.ids)

    def _resum(self) -> None:
        """Sum the members afresh: numpy's axis-0 reduction itself."""
        self._sum = np.add.reduce(self.rows().astype(np.float64), axis=0)

    def append(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        """Append members after the current ones (origin ``-1``)."""
        start = len(self.ids)
        end = start + len(ids)
        if end > self._buffer.shape[0]:
            self._grow(end)
        self._buffer[start:end] = vectors
        self.ids.extend(ids)
        self.origins.extend([-1] * len(ids))
        if self._sum.shape[0] == 1:
            # numpy sums an (n, 1) matrix pairwise, not row after row.
            self._resum()
            return
        for row in self._buffer[start:end]:
            self._sum += row


class ReferenceMaintainer(ChunkIndexMaintainer):
    """The maintainer whose chunks are all :class:`ReferenceChunk`."""

    def __init__(self, index):
        super().__init__(index)
        # The shipped constructors summed the chunks: sum them again here.
        for chunk in self._chunks:
            chunk.__class__ = ReferenceChunk
            chunk._resum()
        self._centroids = np.stack([chunk.centroid() for chunk in self._chunks])

    def _split(self, position: int) -> None:
        super()._split(position)
        # The shipped split builds (and sums) the moved half as a shipped
        # chunk.
        self._chunks[-1].__class__ = ReferenceChunk
        self._chunks[-1]._resum()
        self._refresh_centroid(self.n_chunks - 1)

    def _refresh_centroid(self, position: int) -> None:
        self._centroids[position] = self._chunks[position].centroid()

    def insert(self, descriptor_id: int, vector: np.ndarray) -> int:
        """Insert one descriptor into the chunk with the nearest centroid;
        returns the chunk position it landed in (pre-split)."""
        descriptor_id = int(descriptor_id)
        if descriptor_id in self._chunk_of_id:
            raise ValueError(f"descriptor id {descriptor_id} already present")
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self.dimensions:
            raise ValueError("vector dimensionality mismatch")

        d2 = squared_distances(vector.astype(np.float64), self._centroids)
        position = int(np.argmin(d2))
        chunk = self._chunks[position]
        chunk.append([descriptor_id], vector)
        chunk.dirty = True
        self._chunk_of_id[descriptor_id] = chunk
        self._refresh_centroid(position)
        self.stats.inserts += 1

        if len(chunk) > SPLIT_FACTOR * self.target_chunk_size:
            self._split(position)
        return position

    def delete(self, descriptor_id: int) -> None:
        """Remove one descriptor; small survivors merge into a neighbor."""
        descriptor_id = int(descriptor_id)
        chunk = self._chunk_of_id.pop(descriptor_id, None)
        if chunk is None:
            raise KeyError(f"descriptor id {descriptor_id} not in index")
        position = chunk.position
        chunk.remove(chunk.ids.index(descriptor_id))
        chunk.dirty = True
        self.stats.deletes += 1

        if len(chunk) == 0:
            self._drop_chunk(position)
            return
        self._refresh_centroid(position)
        if (
            len(chunk) < MERGE_FRACTION * self.target_chunk_size
            and self.n_chunks > 1
        ):
            self._merge_away(position)
