"""The chunk index: the paper's two-file architecture plus access paths.

Building a :class:`ChunkIndex` from a :class:`~repro.core.chunk.ChunkSet`
performs exactly what section 4.2 describes: the descriptors are grouped by
chunk into the chunk file (each chunk padded to full pages) and a parallel
index file records each chunk's centroid, radius and location.

Two storage backends provide the chunk contents:

* :class:`InMemoryChunkStore` — chunks held as arrays; used by the
  experiments, whose I/O cost comes from the *simulated* disk model while
  the actual bytes stay in RAM.  Page extents are still computed with the
  real on-disk layout so the simulated I/O charges are exact.
* :class:`OnDiskChunkStore` — real files via :mod:`repro.storage`; used by
  the persistence path and wall-clock sanity checks.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..storage.chunk_file import ChunkExtent, ChunkFileReader, ChunkFileWriter
from ..storage.index_file import index_file_bytes, read_index_file, write_index_file
from ..storage.pages import PageGeometry
from ..storage.records import RecordCodec
from .chunk import ChunkMeta, ChunkSet, bounding_rectangle
from .dataset import DescriptorCollection

__all__ = [
    "ChunkIndex",
    "InMemoryChunkStore",
    "OnDiskChunkStore",
    "build_chunk_index",
    "CHUNK_FILE_NAME",
    "INDEX_FILE_NAME",
]

CHUNK_FILE_NAME = "chunks.dat"
INDEX_FILE_NAME = "chunks.idx"


class InMemoryChunkStore:
    """Chunk contents kept as in-memory arrays."""

    def __init__(self, chunks: Sequence[Tuple[np.ndarray, np.ndarray]]):
        self._chunks = [
            (np.ascontiguousarray(ids, dtype=np.int64),
             np.ascontiguousarray(vectors, dtype=np.float32))
            for ids, vectors in chunks
        ]

    def __len__(self) -> int:
        return len(self._chunks)

    def read_chunk(self, chunk_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, vectors)`` of one chunk."""
        return self._chunks[chunk_id]

    def close(self) -> None:
        """Nothing to release for the in-memory store."""

    def __enter__(self) -> "InMemoryChunkStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


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

    def __len__(self) -> int:
        return len(self._extents)

    def read_chunk(self, chunk_id: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._reader.read_chunk(self._extents[chunk_id])

    def close(self) -> None:
        self._reader.close()

    def __enter__(self) -> "OnDiskChunkStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


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
    """

    metas: List[ChunkMeta]
    store: object
    dimensions: int
    name: str = "chunk-index"

    def __post_init__(self) -> None:
        if not self.metas:
            raise ValueError("a chunk index needs at least one chunk")
        if len(self.store) != len(self.metas):
            raise ValueError(
                f"store has {len(self.store)} chunks but index has {len(self.metas)}"
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

    def __enter__(self) -> "ChunkIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- persistence -------------------------------------------------------

    def save(self, directory: str) -> None:
        """Write the two-file on-disk form into ``directory``.

        The persisted layout is always *compacted*: chunks are written
        sequentially and the index entries carry the fresh extents.  An
        index that accumulated relocation holes through maintenance is
        therefore defragmented by a save/load round trip.
        """
        os.makedirs(directory, exist_ok=True)
        geometry = PageGeometry()
        saved_metas: List[ChunkMeta] = []
        with ChunkFileWriter(
            os.path.join(directory, CHUNK_FILE_NAME), self.dimensions, geometry
        ) as writer:
            for chunk_id in range(self.n_chunks):
                ids, vectors = self.read_chunk(chunk_id)
                extent = writer.write_chunk(ids, vectors)
                saved_metas.append(
                    dataclasses.replace(
                        self.metas[chunk_id],
                        chunk_id=chunk_id,
                        page_offset=extent.page_offset,
                        page_count=extent.page_count,
                    )
                )
        write_index_file(os.path.join(directory, INDEX_FILE_NAME), saved_metas)

    @classmethod
    def load(cls, directory: str, dimensions: int, name: str = "") -> "ChunkIndex":
        """Open an on-disk chunk index previously written by :meth:`save`.

        The chunk-file reader is closed again if construction fails part
        way (e.g. a store/index chunk-count mismatch), so a failed load
        never leaks an open file handle.
        """
        metas = read_index_file(os.path.join(directory, INDEX_FILE_NAME))
        extents = [
            ChunkExtent(m.page_offset, m.page_count, m.n_descriptors) for m in metas
        ]
        store = OnDiskChunkStore(
            os.path.join(directory, CHUNK_FILE_NAME), extents, dimensions
        )
        try:
            return cls(
                metas=metas,
                store=store,
                dimensions=dimensions,
                name=name or os.path.basename(os.path.normpath(directory)),
            )
        except BaseException:
            store.close()
            raise


def build_chunk_index(
    collection: DescriptorCollection,
    chunk_set: ChunkSet,
    name: str = "chunk-index",
    geometry: Optional[PageGeometry] = None,
) -> ChunkIndex:
    """Assemble an in-memory :class:`ChunkIndex` from logical chunks.

    Page extents are laid out exactly as the on-disk writer would place
    them, so simulated I/O costs match what a real chunk file would incur.
    """
    geometry = geometry or PageGeometry()
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
