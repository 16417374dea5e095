"""The chunk index: the paper's two-file architecture plus access paths.

Building a :class:`ChunkIndex` from a :class:`~repro.core.chunk.ChunkSet`
performs exactly what section 4.2 describes: the descriptors are grouped by
chunk into the chunk file (each chunk padded to full pages) and a parallel
index file records each chunk's centroid, radius and location.

A saved index carries a third file, the *code file*
(:mod:`repro.storage.code_file`): per-descriptor cell numbers the pruner
consults to reject a chunk without reading it.  It is optional — a directory
without one, and every in-memory index, searches exactly as before.

Two storage backends provide the chunk contents:

* :class:`InMemoryChunkStore` — chunks held as arrays; used by the
  experiments, whose I/O cost comes from the *simulated* disk model while
  the actual bytes stay in RAM.  Page extents are still computed with the
  real on-disk layout so the simulated I/O charges are exact.
* :class:`OnDiskChunkStore` — real files via :mod:`repro.storage`; used by
  the persistence path and wall-clock sanity checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import zlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..storage.atomic import remove_file
from ..storage.chunk_file import ChunkExtent, ChunkFileReader, write_chunk_file
from ..storage.code_file import CodeFileReader, write_code_file
from ..storage.index_file import (
    index_file_bytes,
    read_index_file,
    round_outward,
    write_index_file,
)
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
    "CODE_FILE_NAME",
]

CHUNK_FILE_NAME = "chunks.dat"
INDEX_FILE_NAME = "chunks.idx"
CODE_FILE_NAME = "chunks.va"


def _file_crc32(path: str) -> int:
    """CRC32 of a whole file (what the code file binds the index file by)."""
    with open(path, "rb") as stream:
        return zlib.crc32(stream.read())


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
        #: CRC32 of the chunk file's checksum table (code files bind to it).
        self.table_crc = self._reader.table_crc

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
        """Write the on-disk form into ``directory``: chunk file, index
        file, then the code file describing the two.

        Chunks are written contiguously, each padded to whole pages, and
        the index entries carry the writer's extents — the layout every
        index in memory already has (:func:`build_chunk_index`, a
        maintained index's summaries), so a save/load round trip charges
        the same pages.

        Each file is published atomically, the code file last and bound to
        the other two by their checksums, and old codes are removed first:
        a save that dies part way leaves a directory without codes or with
        codes :meth:`load` refuses, never codes describing other chunks.
        """
        os.makedirs(directory, exist_ok=True)
        codes_path = os.path.join(directory, CODE_FILE_NAME)
        index_path = os.path.join(directory, INDEX_FILE_NAME)
        with contextlib.suppress(FileNotFoundError):
            remove_file(codes_path)
        extents, table_crc = write_chunk_file(
            os.path.join(directory, CHUNK_FILE_NAME),
            self.dimensions,
            (self.read_chunk(chunk_id) for chunk_id in range(self.n_chunks)),
            PageGeometry(),
        )
        saved_metas = [
            dataclasses.replace(
                meta,
                chunk_id=chunk_id,
                page_offset=extent.page_offset,
                page_count=extent.page_count,
            )
            for chunk_id, (meta, extent) in enumerate(zip(self.metas, extents))
        ]
        write_index_file(index_path, saved_metas)
        # The cells divide the rectangle as the index file stores it, which
        # is the one a loaded index bounds with.
        lower, upper = round_outward(*self.rectangle_matrices())
        write_code_file(
            codes_path,
            self.dimensions,
            self.n_chunks,
            ((self.read_chunk(i)[1], lower[i], upper[i]) for i in range(self.n_chunks)),
            table_crc,
            _file_crc32(index_path),
        )

    @classmethod
    def load(cls, directory: str, dimensions: int, name: str = "") -> "ChunkIndex":
        """Open an on-disk chunk index previously written by :meth:`save`.

        The code file is opened when the directory has one, and refused
        (:class:`~repro.storage.errors.CorruptFileError`) unless bound to
        exactly this chunk file and index file.  Whatever was opened is
        closed again if construction fails part way, so a failed load
        never leaks an open file handle.
        """
        index_path = os.path.join(directory, INDEX_FILE_NAME)
        codes_path = os.path.join(directory, CODE_FILE_NAME)
        metas = read_index_file(index_path)
        extents = [
            ChunkExtent(m.page_offset, m.page_count, m.n_descriptors) for m in metas
        ]
        store = OnDiskChunkStore(
            os.path.join(directory, CHUNK_FILE_NAME), extents, dimensions
        )
        codes = None
        try:
            if os.path.exists(codes_path):
                counts = [m.n_descriptors for m in metas]
                binding = (store.table_crc, _file_crc32(index_path))
                codes = CodeFileReader(codes_path, dimensions, counts, *binding)
            return cls(
                metas=metas,
                store=store,
                dimensions=dimensions,
                name=name or os.path.basename(os.path.normpath(directory)),
                codes=codes,
            )
        except BaseException:
            store.close()
            if codes is not None:
                codes.close()
            raise


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
