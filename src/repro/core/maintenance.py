"""Incremental chunk-index maintenance.

The paper builds its chunk indexes offline and notes (section 7) a
220-million-descriptor collection on the horizon — at which point full
rebuilds stop being an option.  This module maintains a chunk index under
inserts and deletes while preserving the invariants the search relies on:

* every chunk's stored centroid is the exact mean, its radius the exact
  minimum bounding radius and its rectangle the exact per-dimension extent
  of its current members (the completion proof and the pruning bounds are
  unsound otherwise);
* chunks that grow beyond :data:`SPLIT_FACTOR` times the target size are
  split by a 2-means pass, and chunks that shrink below
  :data:`MERGE_FRACTION` of it are merged into the chunk with the nearest
  centroid.

A chunk's page extent is not state: like every writer of a chunk file
(the paper's section 4.2), :meth:`ChunkIndexMaintainer.summaries` lays
the chunks out contiguously in position order, each padded to whole
pages, so the extents a maintained index is charged are the ones it is
saved with.

For the durable streaming index (:mod:`repro.core.ingest`) each chunk
additionally carries its *provenance* relative to the last persisted base
generation: ``base_ref`` names the base chunk it descends from and
``origins[i]`` is the base row member ``i`` came from (``-1`` for rows
inserted since).  Within a chunk the base-origin members always form a
prefix in base-row order followed by the appended members in insertion
order — inserts append, deletes remove in place, splits keep subsets in
row order, and merged-in members are recorded as appends — which is
exactly the tombstone-bitmap + appended-records shape the checkpoint
writes, and what makes a recovered chunk's member order (hence its
centroid, a float64 sum in member order) bit-identical to the uncrashed
process.

In memory each chunk's members are the leading rows of one growable
C-contiguous float32 matrix edited in place (:class:`_MutableChunk`),
beside the float64 column sum of those rows, kept current by the three
methods that edit the matrix.  An insert costs one distance-kernel call
over the centroid matrix (whose nearest distance is finite exactly when
the vector is, so a non-finite vector is refused there), one row write
and two in-place d-vector updates: the row added to the sum, and the
exact mean — that sum over the member count — divided straight into the
chunk's centroid row.  A delete or a split costs one gap-closing move or
subset copy plus a re-sum of the chunk, a merge one block copy plus one
addition per merged row — never a re-stack.
Internal readers take a prefix view; :meth:`ChunkIndexMaintainer.snapshot`
and :meth:`ChunkIndexMaintainer.to_index` are the only places state
leaves the maintainer, and both copy.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..storage.pages import PageGeometry
from ..storage.records import RecordCodec
from .chunk import ChunkMeta, bounding_radius, bounding_rectangle
from .chunk_index import ChunkIndex, InMemoryChunkStore
from .distance import squared_distances

__all__ = [
    "ChunkIndexMaintainer",
    "MaintenanceStats",
    "DeltaRef",
    "ChunkSnapshot",
    "ChunkSummary",
    "SPLIT_FACTOR",
    "MERGE_FRACTION",
    "mean_chunk_size",
]

#: A chunk splits once it holds more than ``SPLIT_FACTOR * target`` members.
SPLIT_FACTOR = 2.0
#: A chunk merges away once it holds fewer than ``MERGE_FRACTION * target``
#: members (and more than one chunk remains).
MERGE_FRACTION = 0.2


def mean_chunk_size(index: ChunkIndex) -> int:
    """A maintainer's first target size: ``index``'s mean chunk size."""
    return max(1, round(float(index.descriptor_counts().mean())))


@dataclasses.dataclass
class MaintenanceStats:
    """Counters describing maintenance activity since construction."""

    inserts: int = 0
    deletes: int = 0
    splits: int = 0
    merges: int = 0


class DeltaRef(NamedTuple):
    """Where a chunk's checkpointed delta lives: a section of a pack file."""

    pack: str
    section: int


class ChunkSnapshot(NamedTuple):
    """Externalized state of one maintained chunk.

    Returned by :meth:`ChunkIndexMaintainer.snapshot` (the checkpoint
    writer consumes it) and accepted by
    :meth:`ChunkIndexMaintainer.restore` (recovery rebuilds from it).

    Attributes
    ----------
    ids:
        Member descriptor ids, in chunk order.
    vectors:
        ``(n, d)`` float32 member matrix, rows parallel to ``ids``.
    origins:
        Per-member base-row provenance: the row index within base chunk
        ``base_ref`` the member came from, ``-1`` for members appended
        since the base generation.
    base_ref:
        Base-generation chunk id this chunk descends from (``-1`` none).
    delta:
        The pack section currently representing this chunk's divergence
        from base (``None`` when clean or never checkpointed).
    dirty:
        True when the chunk mutated since the last checkpoint.
    """

    ids: Tuple[int, ...]
    vectors: np.ndarray
    origins: Tuple[int, ...]
    base_ref: int
    delta: Optional[DeltaRef]
    dirty: bool


class ChunkSummary(NamedTuple):
    """One chunk's exact summary plus its checkpoint provenance.

    Returned by :meth:`ChunkIndexMaintainer.summaries`, which reads the
    members in place — nothing here aliases maintainer state.
    """

    meta: ChunkMeta
    base_ref: int
    delta: Optional[DeltaRef]
    dirty: bool


class _MutableChunk:
    """Mutable chunk state: id/origin lists beside one row buffer and its
    running column sum.

    The members live in the first ``len(self)`` rows of a C-contiguous
    ``(capacity, d)`` float32 buffer owned by this chunk.  Appends write
    into spare capacity (doubling when it runs out), a removal closes the
    gap in place so member order is kept, and a split replaces the buffer
    by the fancy-indexed survivors.  :meth:`rows` is a *view*: it is only
    valid until the next mutation, so anything that leaves the maintainer
    takes :meth:`copy_rows` instead.

    ``_sum`` is the float64 sum of the member rows, added in member
    order: :meth:`append` adds each new row to it, while :meth:`remove`
    and :meth:`keep` re-sum the survivors (subtracting a row would not
    undo its addition exactly).  With two or more dimensions that is the
    sequence of additions numpy's axis-0 reduction of the promoted matrix
    performs; with one, numpy sums pairwise, so :meth:`append` re-sums
    too.  Either way :meth:`centroid` equals
    ``rows().astype(float64).mean(axis=0)`` bit for bit.  ``position`` is the chunk's index in its maintainer's
    chunk list.
    """

    __slots__ = (
        "ids", "_buffer", "_sum", "base_ref", "origins", "dirty", "delta", "position"
    )

    def __init__(
        self,
        ids: Sequence[int],
        vectors: np.ndarray,
        base_ref: int = -1,
        origins: Optional[Sequence[int]] = None,
        dirty: bool = True,
        delta: Optional[DeltaRef] = None,
    ):
        self.ids: List[int] = np.asarray(ids, dtype=np.int64).tolist()
        # Always a private copy: the buffer is written in place.
        self._buffer = np.array(vectors, dtype=np.float32, order="C")
        if self._buffer.ndim != 2 or self._buffer.shape[0] != len(self.ids):
            raise ValueError("vectors must parallel ids")
        self._resum()
        self.base_ref = int(base_ref)
        self.origins: List[int] = (
            np.asarray(origins, dtype=np.int64).tolist()
            if origins is not None
            else [-1] * len(self.ids)
        )
        if len(self.origins) != len(self.ids):
            raise ValueError("origins must parallel ids")
        self.dirty = bool(dirty)
        self.delta = delta
        self.position = -1

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self) -> np.ndarray:
        """Members as an ``(n, d)`` float32 prefix view of the buffer."""
        return self._buffer[: len(self.ids)]

    def copy_rows(self) -> np.ndarray:
        """Members as a fresh ``(n, d)`` float32 matrix the caller owns."""
        return self.rows().copy()

    def centroid(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Exact float64 mean of the members, in member order: a new array,
        or written into ``out``."""
        return np.divide(self._sum, len(self.ids), out=out)

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
        # By index: iterating a slice costs more than the addition itself.
        for row in range(start, end):
            self._sum += self._buffer[row]

    def _grow(self, needed: int) -> None:
        """Reallocate to at least ``needed`` rows; doubling keeps ``N``
        single appends at O(log N) reallocations."""
        n = len(self.ids)
        grown = np.empty(
            (max(needed, 2 * self._buffer.shape[0]), self._buffer.shape[1]),
            dtype=np.float32,
        )
        grown[:n] = self._buffer[:n]
        self._buffer = grown

    def remove(self, row: int) -> None:
        """Remove one member in place; the rest keep their order."""
        n, d = len(self.ids), self._buffer.shape[1]
        # A view (the buffer is C-contiguous): numpy moves an overlapping
        # 1-D copy in place, a 2-D one through a temporary.
        flat = self._buffer.reshape(-1)
        flat[row * d : (n - 1) * d] = flat[(row + 1) * d : n * d]
        del self.ids[row]
        del self.origins[row]
        self._resum()

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the members at ``rows`` (increasing), in that order."""
        self._buffer = self._buffer[rows]
        self.ids = [self.ids[i] for i in rows]
        self.origins = [self.origins[i] for i in rows]
        self._resum()


class ChunkIndexMaintainer:
    """Maintains a chunk index under inserts and deletes.

    Parameters
    ----------
    index:
        The starting index; its contents are copied, the original is not
        mutated.  Its mean chunk size is the target around which the
        split/merge thresholds are set (:data:`SPLIT_FACTOR`,
        :data:`MERGE_FRACTION`), and chunks are laid out in the default
        :class:`~repro.storage.pages.PageGeometry`.
    """

    def __init__(self, index: ChunkIndex):
        chunks = [
            _MutableChunk(*index.read_chunk(chunk_id))
            for chunk_id in range(index.n_chunks)
        ]
        self._setup(
            dimensions=index.dimensions,
            chunks=chunks,
            target_chunk_size=mean_chunk_size(index),
            geometry=None,
            stats=MaintenanceStats(),
        )

    def _setup(
        self,
        dimensions: int,
        chunks: List[_MutableChunk],
        target_chunk_size: int,
        geometry: Optional[PageGeometry],
        stats: MaintenanceStats,
    ) -> None:
        if target_chunk_size < 1:
            raise ValueError("target chunk size must be positive")
        self.dimensions = int(dimensions)
        self.geometry = geometry or PageGeometry()
        self._codec = RecordCodec(self.dimensions)
        self.target_chunk_size = int(target_chunk_size)
        self.stats = stats
        self._chunks = chunks
        # Each live id's chunk: a merge or a drop rewires only the ids it
        # moves, and renumbers the chunks' positions, never the whole map.
        self._chunk_of_id: Dict[int, _MutableChunk] = {}
        for position, chunk in enumerate(self._chunks):
            chunk.position = position
            for descriptor_id in chunk.ids:
                if descriptor_id in self._chunk_of_id:
                    raise ValueError(f"duplicate descriptor id {descriptor_id}")
                self._chunk_of_id[descriptor_id] = chunk
        if not all(len(chunk) for chunk in self._chunks):
            raise ValueError("a chunk must contain at least one descriptor")
        # The chunks' exact centroids, refreshed on every mutation.
        self._centroids = np.stack([chunk.centroid() for chunk in self._chunks])

    @classmethod
    def restore(
        cls,
        dimensions: int,
        chunks: Sequence[ChunkSnapshot],
        target_chunk_size: int,
        geometry: Optional[PageGeometry] = None,
        stats: Optional[MaintenanceStats] = None,
    ) -> "ChunkIndexMaintainer":
        """Rebuild a maintainer from externalized chunk state.

        This is the recovery entry point: chunk contents, member order and
        provenance are restored exactly, so subsequent operations (WAL
        replay included) take the same code path — and produce
        bit-identical state — as the process that wrote the checkpoint.
        """
        mutable = [
            _MutableChunk(
                snap.ids,
                snap.vectors,
                base_ref=snap.base_ref,
                origins=snap.origins,
                dirty=snap.dirty,
                delta=snap.delta,
            )
            for snap in chunks
        ]
        self = object.__new__(cls)
        self._setup(
            dimensions=dimensions,
            chunks=mutable,
            target_chunk_size=target_chunk_size,
            geometry=geometry,
            stats=stats if stats is not None else MaintenanceStats(),
        )
        return self

    # -- bookkeeping helpers ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._chunk_of_id)

    @property
    def n_chunks(self) -> int:
        return len(self._chunks)

    def __contains__(self, descriptor_id: int) -> bool:
        return int(descriptor_id) in self._chunk_of_id

    def __iter__(self) -> Iterator[int]:
        """Live descriptor ids, in no particular order."""
        return iter(self._chunk_of_id)

    def _refresh_centroid(self, position: int) -> None:
        self._chunks[position].centroid(out=self._centroids[position])

    # -- operations ----------------------------------------------------------------

    def insert(self, descriptor_id: int, vector: np.ndarray) -> int:
        """Insert one descriptor into the chunk with the nearest centroid;
        returns the chunk position it landed in (pre-split).  A vector
        with a non-finite component is refused, the state untouched."""
        descriptor_id = int(descriptor_id)
        if descriptor_id in self._chunk_of_id:
            raise ValueError(f"descriptor id {descriptor_id} already present")
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self.dimensions:
            raise ValueError("vector dimensionality mismatch")

        # squared_distances' direct form, bit for bit.  The centroids are
        # finite, so the nearest distance is finite exactly when the
        # vector is.
        diff = self._centroids - vector
        d2 = np.einsum("ij,ij->i", diff, diff)
        position = int(d2.argmin())
        if not math.isfinite(d2[position]):
            raise ValueError(
                f"descriptor id {descriptor_id} has a non-finite component"
            )
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

    def _split(self, position: int) -> None:
        """2-means split of an oversized chunk; the moved half becomes the
        last chunk."""
        chunk = self._chunks[position]
        matrix = chunk.rows().astype(np.float64)
        # Seed with the two most distant members of a sample.
        n = matrix.shape[0]
        centers = matrix[[0, int(np.argmax(squared_distances(matrix[0], matrix)))]]
        assignment = np.zeros(n, dtype=np.intp)
        for _ in range(6):
            d0 = squared_distances(centers[0], matrix)
            d1 = squared_distances(centers[1], matrix)
            new_assignment = (d1 < d0).astype(np.intp)
            if np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
            for c in (0, 1):
                members = matrix[assignment == c]
                if members.shape[0]:
                    centers[c] = members.mean(axis=0)
        if assignment.all() or not assignment.any():
            half = n // 2
            assignment = np.asarray([0] * half + [1] * (n - half))

        keep_rows = np.flatnonzero(assignment == 0)
        move_rows = np.flatnonzero(assignment == 1)
        # The moved half loses its base linkage: its members become plain
        # appends of a new (baseless) chunk, keeping the origin-prefix
        # invariant trivially true for both halves.
        moved = _MutableChunk(
            [chunk.ids[i] for i in move_rows], chunk.rows()[move_rows]
        )
        chunk.keep(keep_rows)
        chunk.dirty = True

        moved.position = len(self._chunks)
        self._chunks.append(moved)
        for descriptor_id in moved.ids:
            self._chunk_of_id[descriptor_id] = moved
        self._centroids = np.vstack([self._centroids, moved.centroid()])
        self._refresh_centroid(position)
        self.stats.splits += 1

    def _drop_chunk(self, position: int) -> None:
        self._chunks.pop(position)
        self._centroids = np.delete(self._centroids, position, axis=0)
        for later in self._chunks[position:]:
            later.position -= 1

    def _merge_away(self, position: int) -> None:
        """Fold an undersized chunk into the nearest other chunk."""
        chunk = self._chunks[position]
        d2 = squared_distances(self._centroids[position], self._centroids)
        d2[position] = np.inf
        other = int(np.argmin(d2))
        target = self._chunks[other]
        # Merged-in members count as appends of the surviving chunk:
        # their link to the dissolved chunk's base is severed, so the
        # surviving chunk's origin-prefix invariant is preserved.
        target.append(chunk.ids, chunk.rows())
        target.dirty = True
        for descriptor_id in chunk.ids:
            self._chunk_of_id[descriptor_id] = target
        self._refresh_centroid(other)
        self.stats.merges += 1
        self._drop_chunk(position)

    # -- checkpoint support ------------------------------------------------------

    def snapshot(self, position: int) -> ChunkSnapshot:
        """Externalized state of one chunk (checkpoint writer input)."""
        chunk = self._chunks[position]
        return ChunkSnapshot(
            ids=tuple(chunk.ids),
            vectors=chunk.copy_rows(),
            origins=tuple(chunk.origins),
            base_ref=chunk.base_ref,
            delta=chunk.delta,
            dirty=chunk.dirty,
        )

    def provenance(self, position: int) -> Tuple[int, Tuple[int, ...]]:
        """``(base_ref, origins)`` of one chunk: :meth:`snapshot` minus
        the rows, for deciding whether the chunk needs a delta at all."""
        chunk = self._chunks[position]
        return chunk.base_ref, tuple(chunk.origins)

    def summaries(self) -> List[ChunkSummary]:
        """Exact summary and provenance of every chunk, by position.

        The centroid is the chunk's maintained one; radius and rectangle
        are computed from the members in place (no state to keep current,
        nothing to invalidate).  ``meta.chunk_id`` is the position.
        Extents are the chunk file's layout: payload pages, contiguous in
        position order.
        """
        summaries: List[ChunkSummary] = []
        page_offset = 0
        for position, chunk in enumerate(self._chunks):
            rows = chunk.rows()
            centroid = chunk.centroid()
            lower, upper = bounding_rectangle(rows)
            meta = ChunkMeta(
                chunk_id=position,
                centroid=centroid,
                radius=bounding_radius(centroid, rows),
                lower=lower,
                upper=upper,
                n_descriptors=len(chunk),
                page_offset=page_offset,
                page_count=self.geometry.pages_for(
                    len(chunk) * self._codec.record_bytes
                ),
            )
            page_offset += meta.page_count
            summaries.append(
                ChunkSummary(meta, chunk.base_ref, chunk.delta, chunk.dirty)
            )
        return summaries

    def dirty_positions(self) -> List[int]:
        """Positions of chunks mutated since their last checkpoint."""
        return [i for i, chunk in enumerate(self._chunks) if chunk.dirty]

    def checkpointed(self, position: int, delta: Optional[DeltaRef]) -> None:
        """Record that a checkpoint captured this chunk's current state.

        ``delta`` names the pack section now representing its divergence
        from base (``None`` when the chunk is byte-identical to its base
        chunk and needs no section).
        """
        chunk = self._chunks[position]
        chunk.delta = delta
        chunk.dirty = False

    def rebase(self) -> None:
        """Declare the current state a fresh base generation.

        Called after a full rebuild persisted every chunk: each chunk
        becomes a clean base chunk (``base_ref`` = its position, every
        member a base row, no delta section).
        """
        for position, chunk in enumerate(self._chunks):
            chunk.base_ref = position
            chunk.origins = list(range(len(chunk)))
            chunk.dirty = False
            chunk.delta = None

    # -- export -----------------------------------------------------------------------

    def to_index(self, name: str = "maintained") -> ChunkIndex:
        """Materialize the current state as a searchable :class:`ChunkIndex`.

        Note: :class:`~repro.core.search.ChunkSearcher` caches index
        summaries at construction, so build a fresh searcher after each
        maintenance batch.
        """
        return ChunkIndex(
            metas=[summary.meta for summary in self.summaries()],
            store=InMemoryChunkStore(
                [
                    (np.asarray(chunk.ids, dtype=np.int64), chunk.copy_rows())
                    for chunk in self._chunks
                ]
            ),
            dimensions=self.dimensions,
            name=name,
        )
