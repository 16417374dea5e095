"""The chunk file: descriptors grouped by chunk, padded to full pages.

Paper section 4.2: "The chunk file holds the descriptors computed over the
whole image collection but these descriptors are grouped according to the
specific chunk-forming strategy.  All the descriptors belonging to one
chunk are stored together on disk and the chunks are stored sequentially.
The chunks are padded to occupy full disk pages."

The writer streams chunks in order, returning the page extent of each so
the caller can fill in :class:`~repro.core.chunk.ChunkMeta`.  The reader
fetches one chunk's pages and decodes the records, exactly the access the
search algorithm performs per ranked chunk.

Format
------
One header page, the page-padded chunk sequence, then a CRC32 table::

    page 0          : header  (magic "EFF2CHNK", version, dims,
                               page_bytes, n_chunks, table_page)
    pages 1..N      : chunk payloads, page-padded (extents are *logical*
                      — ``ChunkExtent.page_offset`` is relative to the
                      data region, so the simulated I/O charges are those
                      of the paper's headerless layout)
    page table_page : CRC table (magic "EFF2CCRC", count, then one
                      ``(page_offset, crc32)`` entry per chunk)

A file that does not open with the magic is rejected as corrupt: there
is no headerless fallback, so a damaged header can never make the reader
decode the data region from the wrong offset.

The header is written with ``table_page = 0`` and patched on close, so a
crash mid-write leaves a file the reader rejects as unfinalised instead
of one that silently decodes garbage.  Writers that own their path write
to ``<path>.tmp`` and publish with an atomic fsync + rename; an aborted
or failed write never replaces an existing good file.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import MAX_DIMENSIONS, ChecksumError, CorruptFileError, read_exact
from .pages import PageGeometry
from .records import RecordCodec

__all__ = [
    "ChunkFileWriter",
    "ChunkFileReader",
    "ChunkExtent",
    "CHUNK_MAGIC",
    "CHUNK_VERSION",
]

PathOrFile = Union[str, os.PathLike, BinaryIO]

CHUNK_MAGIC = b"EFF2CHNK"
TABLE_MAGIC = b"EFF2CCRC"
#: The chunk-file format version (the only one read or written).
CHUNK_VERSION = 2
#: Physical page where the data region begins (page 0 is the header).
_DATA_START_PAGE = 1

#: Header: magic, version, dims, page_bytes, reserved, n_chunks, table_page.
_HEADER = struct.Struct("<8sIIIIQQ")
#: CRC table header: magic, entry count.
_TABLE_HEADER = struct.Struct("<8sQ")
#: CRC table entry: logical page offset, CRC32 of the chunk payload.
_TABLE_ENTRY = struct.Struct("<QI")
#: Reject headers whose implied table exceeds this (1 TiB) — guards
#: against corrupted ``n_chunks`` fields triggering huge reads.
_MAX_PAYLOAD_BYTES = 1 << 40


class ChunkExtent(Tuple[int, int, int]):
    """``(page_offset, page_count, n_descriptors)`` for one written chunk.

    Page offsets are *logical* (relative to the start of the data
    region).
    """

    __slots__ = ()

    def __new__(cls, page_offset: int, page_count: int, n_descriptors: int):
        return tuple.__new__(cls, (int(page_offset), int(page_count), int(n_descriptors)))

    @property
    def page_offset(self) -> int:
        return self[0]

    @property
    def page_count(self) -> int:
        return self[1]

    @property
    def n_descriptors(self) -> int:
        return self[2]


class ChunkFileWriter:
    """Sequentially writes chunks, padding each to a page boundary.

    Writing to a path is crash-safe: bytes land in ``<path>.tmp`` and the
    final name appears only after a flush + fsync + atomic rename in
    :meth:`close`.  A writer whose previous write raised is *poisoned* —
    further ``write_chunk`` calls are rejected and closing discards the
    temporary file — so a partially written chunk file can never
    masquerade as a complete one.
    """

    def __init__(
        self,
        target: PathOrFile,
        dimensions: int,
        geometry: Optional[PageGeometry] = None,
    ):
        self._geometry = geometry or PageGeometry()
        self._codec = RecordCodec(dimensions)
        self._owns_file = isinstance(target, (str, os.PathLike))
        if self._owns_file:
            self._final_path = os.fspath(target)  # type: ignore[arg-type]
            self._tmp_path: Optional[str] = self._final_path + ".tmp"
            self._file: BinaryIO = open(self._tmp_path, "wb")
        else:
            self._final_path = ""
            self._tmp_path = None
            self._file = target  # type: ignore[assignment]
        self._base = 0 if self._owns_file else self._file.tell()
        self._next_page = 0
        self._closed = False
        self._failed = False
        self._crcs: List[Tuple[int, int]] = []
        #: CRC32 of the checksum table's entries, set at close (a code
        #: file binds itself to it).
        self.table_crc = 0
        self.extents: List[ChunkExtent] = []
        try:
            self._write_header(n_chunks=0, table_page=0)
        except Exception:
            self._failed = True
            self.close()
            raise

    @property
    def geometry(self) -> PageGeometry:
        return self._geometry

    def _write_header(self, n_chunks: int, table_page: int) -> None:
        header = _HEADER.pack(
            CHUNK_MAGIC,
            CHUNK_VERSION,
            self._codec.dimensions,
            self._geometry.page_bytes,
            0,
            n_chunks,
            table_page,
        )
        self._file.write(header)
        self._file.write(b"\x00" * (self._geometry.page_bytes - len(header)))

    def write_chunk(self, ids: np.ndarray, vectors: np.ndarray) -> ChunkExtent:
        """Append one chunk; returns its (logical) page extent."""
        if self._closed:
            raise ValueError("writer is closed")
        if self._failed:
            raise ValueError(
                "writer is poisoned: a previous write failed, the file is "
                "incomplete and will be discarded on close"
            )
        try:
            payload = self._codec.encode(ids, vectors)
            padding = self._geometry.padding_for(len(payload))
            self._file.write(payload)
            if padding:
                self._file.write(b"\x00" * padding)
        except Exception:
            self._failed = True
            raise
        pages = self._geometry.pages_for(len(payload))
        extent = ChunkExtent(self._next_page, pages, int(np.asarray(ids).shape[0]))
        self._crcs.append((self._next_page, zlib.crc32(payload)))
        self._next_page += pages
        self.extents.append(extent)
        return extent

    def _write_table(self) -> int:
        """Append the CRC table; returns its physical page number."""
        table_page = _DATA_START_PAGE + self._next_page
        entries = b"".join(_TABLE_ENTRY.pack(*entry) for entry in self._crcs)
        self.table_crc = zlib.crc32(entries)
        self._file.write(_TABLE_HEADER.pack(TABLE_MAGIC, len(self._crcs)))
        self._file.write(entries)
        return table_page

    def _discard(self) -> None:
        """Close and remove the temporary file after a failure."""
        try:
            if self._owns_file:
                self._file.close()
        finally:
            if self._tmp_path is not None and os.path.exists(self._tmp_path):
                os.unlink(self._tmp_path)

    def close(self) -> None:
        """Finalise the file (CRC table + header patch), fsync owned
        files, and atomically publish path targets.

        A poisoned writer (or one whose ``with`` block raised) discards
        its temporary file instead: the target path is left untouched.
        """
        if self._closed:
            return
        self._closed = True
        if self._failed:
            self._discard()
            return
        try:
            table_page = self._write_table()
            self._file.seek(self._base)
            self._write_header(len(self._crcs), table_page)
            self._file.flush()
            if self._owns_file:
                os.fsync(self._file.fileno())
                self._file.close()
                assert self._tmp_path is not None
                os.replace(self._tmp_path, self._final_path)
        except Exception:
            self._failed = True
            self._discard()
            raise

    def __enter__(self) -> "ChunkFileWriter":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None:
            # The with-block failed: never publish a partial file.
            self._failed = True
        self.close()


class ChunkFileReader:
    """Random-access reads of whole chunks from a chunk file.

    The header and checksum table are validated at open — anything
    malformed raises :class:`~repro.storage.errors.CorruptFileError` —
    and every chunk payload read is verified against its stored CRC32.
    Extents come from the (un-checksummed) index file, so each is bounded
    against the data region before anything is sought or read.
    """

    def __init__(
        self,
        source: PathOrFile,
        dimensions: int,
        geometry: Optional[PageGeometry] = None,
    ):
        self._geometry = geometry or PageGeometry()
        self._codec = RecordCodec(dimensions)
        self._owns_file = isinstance(source, (str, os.PathLike))
        self._file: BinaryIO = (
            open(source, "rb") if self._owns_file else source  # type: ignore[arg-type]
        )
        self._crcs: Dict[int, int] = {}
        self.table_crc = 0  # as ChunkFileWriter.table_crc
        try:
            self._base = self._file.tell()
            self._read_header()
        except Exception:
            self.close()
            raise

    def _read_header(self) -> None:
        raw = self._file.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise CorruptFileError("chunk file too short for its header")
        magic, version, dims, page_bytes, _, n_chunks, table_page = (
            _HEADER.unpack(raw)
        )
        if magic != CHUNK_MAGIC:
            raise CorruptFileError(f"bad chunk file magic {magic!r}")
        if version != CHUNK_VERSION:
            raise CorruptFileError(f"unsupported chunk file version {version}")
        if not 1 <= dims <= MAX_DIMENSIONS:
            raise CorruptFileError(
                f"chunk file header has implausible dimensions {dims} "
                f"(expected 1..{MAX_DIMENSIONS})"
            )
        if dims != self._codec.dimensions:
            raise CorruptFileError(
                f"chunk file holds {dims}-d records, reader expects "
                f"{self._codec.dimensions}-d"
            )
        if page_bytes != self._geometry.page_bytes:
            raise CorruptFileError(
                f"chunk file was written with {page_bytes}-byte pages, "
                f"reader geometry uses {self._geometry.page_bytes}"
            )
        if table_page == 0:
            raise CorruptFileError(
                "chunk file was not finalized (missing checksum table); "
                "the writer likely crashed mid-write"
            )
        if n_chunks * _TABLE_ENTRY.size > _MAX_PAYLOAD_BYTES:
            raise CorruptFileError(
                f"chunk file header implies implausible size (n_chunks={n_chunks})"
            )
        self._load_crc_table(int(table_page), int(n_chunks))
        #: Pages between the header page and the CRC table.
        self._data_pages = int(table_page) - _DATA_START_PAGE

    def _load_crc_table(self, table_page: int, n_chunks: int) -> None:
        # table_page is a raw u64: compare it with the real file size (via
        # seek, which wrapped sources forward) before seeking to it.
        table_at = self._base + self._geometry.byte_offset(table_page)
        if table_at > self._file.seek(0, os.SEEK_END):
            raise CorruptFileError(
                f"chunk file checksum table page {table_page} lies beyond "
                "the end of the file"
            )
        self._file.seek(table_at)
        magic, count = _TABLE_HEADER.unpack(
            read_exact(self._file, _TABLE_HEADER.size, "chunk file checksum table")
        )
        if magic != TABLE_MAGIC:
            raise CorruptFileError(
                f"bad chunk file checksum table magic {magic!r}"
            )
        if count != n_chunks:
            raise CorruptFileError(
                f"chunk file header claims {n_chunks} chunks but the "
                f"checksum table holds {count}"
            )
        raw = read_exact(
            self._file, count * _TABLE_ENTRY.size, "chunk file checksum table"
        )
        self.table_crc = zlib.crc32(raw)
        for i in range(count):
            page_offset, crc = _TABLE_ENTRY.unpack_from(raw, i * _TABLE_ENTRY.size)
            self._crcs[page_offset] = crc

    @property
    def geometry(self) -> PageGeometry:
        return self._geometry

    def read_chunk(self, extent: ChunkExtent) -> Tuple[np.ndarray, np.ndarray]:
        """Read one chunk's pages; returns ``(ids, vectors)``.

        Only the leading ``n_descriptors`` records are decoded — the page
        padding is read (it is transferred from disk either way) but
        discarded.  The payload is verified first; a mismatch raises
        :class:`~repro.storage.errors.ChecksumError`.
        """
        if extent.page_offset + extent.page_count > self._data_pages:
            raise CorruptFileError(
                f"chunk extent (page {extent.page_offset}, {extent.page_count} "
                f"pages) lies outside the {self._data_pages}-page data region"
            )
        self._file.seek(
            self._base
            + self._geometry.byte_offset(_DATA_START_PAGE + extent.page_offset)
        )
        raw = self._file.read(extent.page_count * self._geometry.page_bytes)
        needed = extent.n_descriptors * self._codec.record_bytes
        if len(raw) < needed:
            raise CorruptFileError(
                f"chunk file truncated: wanted {needed} bytes at page "
                f"{extent.page_offset}, got {len(raw)}"
            )
        payload = raw[:needed]
        stored = self._crcs.get(extent.page_offset)
        if stored is None:
            raise CorruptFileError(
                f"no checksum entry for chunk at page {extent.page_offset}"
            )
        actual = zlib.crc32(payload)
        if actual != stored:
            raise ChecksumError(
                f"chunk at page {extent.page_offset} failed its CRC32 "
                f"check (stored {stored:#010x}, computed {actual:#010x})"
            )
        return self._codec.decode(payload)

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "ChunkFileReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
