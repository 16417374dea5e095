"""The chunk index: the paper's two-file architecture plus access paths.

Building a :class:`ChunkIndex` from a :class:`~repro.core.chunk.ChunkSet`
performs exactly what section 4.2 describes: the descriptors are grouped by
chunk into the chunk file (each chunk padded to full pages) and a parallel
index file records each chunk's centroid, radius and location.

A saved index (one generation of :mod:`repro.core.ingest`'s layout)
carries a third file, the *code file* (:mod:`repro.storage.code_file`):
per-descriptor cell numbers the pruner consults to reject a chunk without
reading it.  It is optional — a directory without one, and every in-memory
index, searches exactly as before.

Two storage backends provide the chunk contents:

* :class:`InMemoryChunkStore` — chunks held as read-only arrays; used by
  the experiments, whose I/O cost comes from the *simulated* disk model
  while the actual bytes stay in RAM.  Page extents are still computed with
  the real on-disk layout so the simulated I/O charges are exact.  It also
  memoizes each scanned chunk's member norms for the distance kernel.
* :class:`OnDiskChunkStore` — real files via :mod:`repro.storage`; used by
  the persistence path and wall-clock sanity checks.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..storage.chunk_file import ChunkExtent, ChunkFileReader
from ..storage.code_file import CodeFileReader
from ..storage.index_file import index_file_bytes
from ..storage.pages import PageGeometry
from ..storage.records import RecordCodec
from .chunk import ChunkMeta, ChunkSet, bounding_rectangle
from .dataset import DescriptorCollection
from .distance import squared_norms

__all__ = [
    "ChunkIndex",
    "InMemoryChunkStore",
    "OnDiskChunkStore",
    "build_chunk_index",
]


class InMemoryChunkStore:
    """Chunk contents kept as in-memory arrays, handed out read-only.

    The contents never change after construction, so the store also keeps
    each chunk's member norms, the ``|p|^2`` terms of the expanded-form
    distance kernel, once a search first asks for them
    (:meth:`member_sq_norms`): every later scan of the chunk, by any
    searcher over this store, skips recomputing them.
    """

    def __init__(self, chunks: Sequence[Tuple[np.ndarray, np.ndarray]]):
        self._chunks = [
            (_read_only(np.ascontiguousarray(ids, dtype=np.int64)),
             _read_only(np.ascontiguousarray(vectors, dtype=np.float32)))
            for ids, vectors in chunks
        ]
        # Every member's norm has its place in one block, written when its
        # chunk is first scanned: the pages of chunks never scanned stay
        # untouched, and one block does not fragment the heap as an array
        # per chunk does (+2.3 MiB rss on a 500k-member exact batch).
        self._starts = [0, *itertools.accumulate(len(ids) for ids, _ in self._chunks)]
        self._sq_norm_block = np.empty(self._starts[-1], dtype=np.float64)
        self._sq_norms: List[Optional[np.ndarray]] = [None] * len(self._chunks)

    def __len__(self) -> int:
        return len(self._chunks)

    def read_chunk(self, chunk_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, vectors)`` of one chunk, as read-only arrays."""
        return self._chunks[chunk_id]

    def member_sq_norms(self, chunk_id: int, vectors: np.ndarray) -> np.ndarray:
        """The kernel's ``|p|^2`` terms of chunk ``chunk_id``'s members
        (:func:`~repro.core.distance.squared_norms`), read-only float64,
        computed on the chunk's first call only.  ``vectors`` is the
        chunk's vectors as read or promoted to float64 — the same norms
        either way — and is not read once the chunk's norms are kept."""
        norms = self._sq_norms[chunk_id]
        if norms is None:
            start, stop = self._starts[chunk_id], self._starts[chunk_id + 1]
            self._sq_norm_block[start:stop] = squared_norms(vectors)
            norms = self._sq_norm_block[start:stop]
            norms.flags.writeable = False
            self._sq_norms[chunk_id] = norms
        return norms

    def close(self) -> None:
        """Nothing to release for the in-memory store."""


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``: a write through it raises."""
    view = array.view()
    view.flags.writeable = False
    return view


class OnDiskChunkStore:
    """Chunk contents read from a real chunk file."""

    def __init__(
        self,
        path: str,
        extents: Sequence[ChunkExtent],
        dimensions: int,
        geometry: Optional[PageGeometry] = None,
    ):
        self._reader = ChunkFileReader(path, dimensions, geometry)
        self._extents = list(extents)
        #: CRC32 of the chunk file's checksum table (code files bind to it).
        self.table_crc = self._reader.table_crc

    def __len__(self) -> int:
        return len(self._extents)

    def read_chunk(self, chunk_id: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._reader.read_chunk(self._extents[chunk_id])

    def close(self) -> None:
        self._reader.close()


@dataclasses.dataclass
class ChunkIndex:
    """A built chunk index ready to be searched.

    Attributes
    ----------
    metas:
        Per-chunk :class:`ChunkMeta`, in chunk-file order.
    store:
        Backend resolving a chunk id to its ``(ids, vectors)``.
    dimensions:
        Descriptor dimensionality.
    name:
        Label used in experiment output (e.g. ``"BAG/SMALL"``).
    codes:
        The open code file of an index loaded from a directory that has
        one, else ``None`` (an in-memory chunk has no read to skip).
    """

    metas: List[ChunkMeta]
    store: object
    dimensions: int
    name: str = "chunk-index"
    codes: Optional[CodeFileReader] = None

    def __post_init__(self) -> None:
        if not self.metas:
            raise ValueError("a chunk index needs at least one chunk")
        for what, part in (("store", self.store), ("code file", self.codes)):
            if part is not None and len(part) != len(self.metas):
                raise ValueError(
                    f"{what} has {len(part)} chunks but index has {len(self.metas)}"
                )

    @property
    def n_chunks(self) -> int:
        return len(self.metas)

    @property
    def n_descriptors(self) -> int:
        return int(sum(m.n_descriptors for m in self.metas))

    @property
    def index_bytes(self) -> int:
        """Size of the index file (charged as a sequential read per query)."""
        return index_file_bytes(self.n_chunks, self.dimensions)

    def centroid_matrix(self) -> np.ndarray:
        """``(n_chunks, d)`` float64 centroid matrix for vectorized ranking."""
        return np.stack([m.centroid for m in self.metas])

    def radius_vector(self) -> np.ndarray:
        """Chunk radii in chunk order, dtype float64."""
        return np.asarray([m.radius for m in self.metas], dtype=np.float64)

    def rectangle_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` member rectangles, two ``(n_chunks, d)``
        float64 matrices in chunk order."""
        return (
            np.stack([m.lower for m in self.metas]),
            np.stack([m.upper for m in self.metas]),
        )

    def descriptor_counts(self) -> np.ndarray:
        """Descriptors per chunk, dtype int64."""
        return np.asarray([m.n_descriptors for m in self.metas], dtype=np.int64)

    def page_counts(self) -> np.ndarray:
        """Pages per chunk, dtype int64."""
        return np.asarray([m.page_count for m in self.metas], dtype=np.int64)

    def read_chunk(self, chunk_id: int) -> Tuple[np.ndarray, np.ndarray]:
        if not 0 <= chunk_id < self.n_chunks:
            raise IndexError(f"chunk id {chunk_id} out of range")
        return self.store.read_chunk(chunk_id)

    def close(self) -> None:
        self.store.close()
        if self.codes is not None:
            self.codes.close()

    def __enter__(self) -> "ChunkIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- persistence -------------------------------------------------------

    def save(self, directory: str) -> None:
        """Save as a new generation of ``directory`` (``ingest.save_generation``).
        A crash anywhere leaves a directory that loads as the old index or the
        new one or is refused (``CorruptFileError``), never one that loads and
        then fails."""
        from .ingest import save_generation  # ingest builds on this module

        save_generation(self, directory, None)

    @classmethod
    def load(cls, directory: str, dimensions: int, name: str = "") -> "ChunkIndex":
        """Open the index :meth:`save` committed in ``directory`` in place
        (:func:`repro.core.ingest.open_generation`)."""
        from .ingest import open_generation  # ingest builds on this module

        path = os.path.normpath(directory)
        index, _ = open_generation(directory, name or os.path.basename(path))
        if index.dimensions != dimensions:
            index.close()
            raise ValueError(f"{directory!r} holds {index.dimensions}-d descriptors")
        return index


def build_chunk_index(
    collection: DescriptorCollection,
    chunk_set: ChunkSet,
    name: str = "chunk-index",
) -> ChunkIndex:
    """Assemble an in-memory :class:`ChunkIndex` from logical chunks.

    Page extents are laid out exactly as the on-disk writer would place
    them, so simulated I/O costs match what a real chunk file would incur.
    """
    geometry = PageGeometry()
    codec = RecordCodec(collection.dimensions)
    metas: List[ChunkMeta] = []
    contents: List[Tuple[np.ndarray, np.ndarray]] = []
    next_page = 0
    for chunk_id, chunk in enumerate(chunk_set):
        rows = chunk.member_rows
        ids = collection.ids[rows]
        vectors = collection.vectors[rows]
        payload_bytes = len(rows) * codec.record_bytes
        pages = geometry.pages_for(payload_bytes)
        lower, upper = bounding_rectangle(vectors)
        metas.append(
            ChunkMeta(
                chunk_id=chunk_id,
                centroid=chunk.centroid,
                radius=chunk.radius,
                lower=lower,
                upper=upper,
                n_descriptors=len(rows),
                page_offset=next_page,
                page_count=pages,
            )
        )
        contents.append((ids, vectors))
        next_page += pages
    return ChunkIndex(
        metas=metas,
        store=InMemoryChunkStore(contents),
        dimensions=collection.dimensions,
        name=name,
    )
