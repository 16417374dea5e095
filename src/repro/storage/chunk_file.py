"""The chunk file: descriptors grouped by chunk, padded to full pages.

Paper section 4.2: "The chunk file holds the descriptors computed over the
whole image collection but these descriptors are grouped according to the
specific chunk-forming strategy.  All the descriptors belonging to one
chunk are stored together on disk and the chunks are stored sequentially.
The chunks are padded to occupy full disk pages."

:func:`write_chunk_file` streams chunks in order, returning the page
extent of each so the caller can fill in
:class:`~repro.core.chunk.ChunkMeta`.  The reader fetches one chunk's
pages and decodes the records, exactly the access the search algorithm
performs per ranked chunk.

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

The header is written with ``table_page = 0`` and patched last, so a file
cut short mid-write is one the reader rejects as unfinalised instead of one
that silently decodes garbage.  The file is published through
:func:`repro.storage.atomic.atomic_output` (write-temp, fsync, rename): an
aborted or failed write never replaces an existing good file.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .atomic import atomic_output
from .errors import MAX_DIMENSIONS, ChecksumError, CorruptFileError, read_exact
from .pages import PageGeometry
from .records import RecordCodec

__all__ = [
    "write_chunk_file",
    "ChunkFileReader",
    "ChunkExtent",
    "CHUNK_MAGIC",
    "CHUNK_VERSION",
]

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


def _header_page(
    dimensions: int, geometry: PageGeometry, n_chunks: int, table_page: int
) -> bytes:
    header = _HEADER.pack(
        CHUNK_MAGIC,
        CHUNK_VERSION,
        dimensions,
        geometry.page_bytes,
        0,
        n_chunks,
        table_page,
    )
    return header + bytes(geometry.page_bytes - len(header))


def write_chunk_file(
    path: str,
    dimensions: int,
    chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
    geometry: PageGeometry,
) -> Tuple[List[ChunkExtent], int]:
    """Atomically publish a chunk file; returns ``(extents, table_crc)``.

    ``chunks`` yields each chunk's ``(ids, vectors)`` in file order and is
    consumed lazily, one chunk in memory at a time.  ``extents`` holds each
    chunk's logical page extent; ``table_crc`` is the CRC32 of the checksum
    table's entries (a code file binds itself to it).  The bytes go through
    :func:`~repro.storage.atomic.atomic_output`: if anything raises —
    ``chunks`` included — the file at ``path`` is left as it was.
    """
    codec = RecordCodec(dimensions)
    extents: List[ChunkExtent] = []
    table = bytearray()
    next_page = 0
    with atomic_output(path) as stream:
        stream.write(_header_page(dimensions, geometry, 0, 0))
        for ids, vectors in chunks:
            payload = codec.encode(ids, vectors)
            stream.write(payload)
            stream.write(bytes(geometry.padding_for(len(payload))))
            pages = geometry.pages_for(len(payload))
            extents.append(
                ChunkExtent(next_page, pages, len(payload) // codec.record_bytes)
            )
            table += _TABLE_ENTRY.pack(next_page, zlib.crc32(payload))
            next_page += pages
        stream.write(_TABLE_HEADER.pack(TABLE_MAGIC, len(extents)))
        stream.write(table)
        stream.seek(0)
        stream.write(
            _header_page(
                dimensions, geometry, len(extents), _DATA_START_PAGE + next_page
            )
        )
    return extents, zlib.crc32(table)


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
        path: str,
        dimensions: int,
        geometry: Optional[PageGeometry] = None,
    ):
        self._geometry = geometry or PageGeometry()
        self._codec = RecordCodec(dimensions)
        self._file: BinaryIO = open(path, "rb")
        self._crcs: Dict[int, int] = {}
        #: CRC32 of the checksum table's entries (as ``write_chunk_file``
        #: returns it).
        self.table_crc = 0
        try:
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
        # table_page is a raw u64: compare it with the real file size
        # before seeking to it.
        table_at = self._geometry.byte_offset(table_page)
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
        raw = os.pread(
            self._file.fileno(),
            extent.page_count * self._geometry.page_bytes,
            self._geometry.byte_offset(_DATA_START_PAGE + extent.page_offset),
        )
        needed = extent.n_descriptors * self._codec.record_bytes
        if len(raw) < needed:
            raise CorruptFileError(
                f"chunk file truncated: wanted {needed} bytes at page "
                f"{extent.page_offset}, got {len(raw)}"
            )
        # A view, not a copy: the CRC and the decode read the bytes in place.
        payload = memoryview(raw)[:needed]
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
        self._file.close()

    def __enter__(self) -> "ChunkFileReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
