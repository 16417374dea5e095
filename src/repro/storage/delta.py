"""Checkpoint packs: every dirty chunk's delta in one sequential file.

The streaming index checkpoints a *dirty* chunk (one mutated since the
last checkpoint) not by rewriting the whole base generation but by
expressing its current contents relative to it: a tombstone bitmap over
the base chunk's rows plus the records appended since.  One checkpoint
publishes all of its deltas as the *sections* of a single pack file —
one positioning, one sequential transfer, one fsync, one rename, however
many chunks are dirty::

    header : magic "EFF2DPAK", version u32, dims u32, n_sections u32,
             table_crc32 u32
    table  : n_sections x (base_ref i32 (-1 = no base chunk),
             base_rows u32, n_appended u32, offset u64, crc32 u32)
    section: bitmap  — ceil(base_rows / 8) bytes, bit set = base row live
             records — n_appended descriptor records, encoded with the
                       shared codec from :mod:`repro.storage.records`

Sections lie back to back in table order, the first right after the
table, so ``offset`` is redundant with the sizes before it; the reader
checks the two against each other and against the file's length before
it reads any section.

A chunk's logical contents are reconstructed as the live base rows *in
base order* followed by the appended records *in insertion order* —
exactly the order the in-memory maintainer holds them, which is what
makes recovered centroids bit-identical to an uncrashed process
(``numpy.mean`` over float64 depends on row order).

A pack is published through :func:`repro.storage.atomic.atomic_output`
(write-temp, fsync, rename), so a crash mid-checkpoint leaves the
previous manifest's packs intact and a half-written pack never becomes
visible under its final name.  The writer streams: a section is encoded,
written and dropped before the next one is asked for, and the table is
filled in last, so a checkpoint never holds more than one chunk's delta.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, BinaryIO, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .atomic import atomic_output
from .errors import MAX_DIMENSIONS, ChecksumError, CorruptFileError, read_exact
from .records import RecordCodec

__all__ = [
    "PACK_MAGIC",
    "PACK_VERSION",
    "DeltaSection",
    "DeltaPackReader",
    "write_delta_pack",
]

PACK_MAGIC = b"EFF2DPAK"
PACK_VERSION = 1

_HEADER = struct.Struct("<8sIIII")
_ENTRY = struct.Struct("<iIIQI")


class DeltaSection(NamedTuple):
    """One chunk's delta: the writer's input and the reader's output.

    Attributes
    ----------
    base_ref:
        Chunk id in the base generation this delta applies to, or ``-1``
        for a pure append section (a chunk born after the base build).
    live:
        Boolean mask over the base chunk's rows; True rows are still
        members.  Required when ``base_ref >= 0``; ``None`` or empty
        otherwise (the reader always returns an array).
    ids:
        Appended descriptor ids (int64).
    vectors:
        Appended descriptor vectors (float32, ``(n_appended, dims)``).
    """

    base_ref: int
    live: Optional[np.ndarray]
    ids: np.ndarray
    vectors: np.ndarray


def _encode_section(
    codec: RecordCodec, section: DeltaSection
) -> Tuple[int, int, bytes, bytes]:
    """Validate one section; returns ``(base_rows, n_appended, bitmap, records)``."""
    base_ref, live, ids, vectors = section
    if base_ref >= 0:
        if live is None:
            raise ValueError("a based delta section needs a liveness mask")
        mask = np.asarray(live, dtype=bool).reshape(-1)
    else:
        if live is not None and np.asarray(live).size:
            raise ValueError("a baseless delta section cannot carry a mask")
        mask = np.zeros(0, dtype=bool)
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    vectors = np.asarray(vectors, dtype=np.float32)
    if ids.size == 0:
        vectors = vectors.reshape(0, codec.dimensions)
    if vectors.ndim != 2 or vectors.shape != (ids.size, codec.dimensions):
        raise ValueError("appended ids/vectors shape mismatch")
    if base_ref < 0 and ids.size == 0:
        raise ValueError("a delta section must tombstone or append something")
    bitmap = np.packbits(mask, bitorder="little").tobytes()
    records = codec.encode(ids, vectors) if ids.size else b""
    return mask.size, ids.size, bitmap, records


def write_delta_pack(
    path: str, dimensions: int, n_sections: int, sections: Iterable[DeltaSection]
) -> int:
    """Atomically publish one checkpoint pack; returns bytes written.

    ``sections`` must yield exactly ``n_sections`` items (the count sizes
    the table, which precedes them); it is consumed lazily, one section
    in memory at a time.
    """
    if n_sections < 1:
        raise ValueError("a delta pack needs at least one section")
    codec = RecordCodec(dimensions)
    offset = _HEADER.size + n_sections * _ENTRY.size
    table = bytearray()
    with atomic_output(path) as stream:
        stream.write(bytes(offset))  # header + table, filled in below
        for section in sections:
            base_rows, n_appended, bitmap, records = _encode_section(codec, section)
            stream.write(bitmap)
            stream.write(records)
            table += _ENTRY.pack(
                int(section.base_ref),
                base_rows,
                n_appended,
                offset,
                zlib.crc32(records, zlib.crc32(bitmap)),
            )
            offset += len(bitmap) + len(records)
        if len(table) != n_sections * _ENTRY.size:
            raise ValueError(
                f"delta pack was promised {n_sections} sections, "
                f"got {len(table) // _ENTRY.size}"
            )
        stream.seek(0)
        stream.write(
            _HEADER.pack(
                PACK_MAGIC, PACK_VERSION, dimensions, n_sections, zlib.crc32(table)
            )
        )
        stream.write(table)
    return offset


class DeltaPackReader:
    """Reads the sections of one pack file, CRC-verifying each.

    Opening parses and validates the header and the whole section table;
    :meth:`read_section` then seeks once and reads that section's bitmap
    and records.  Reading the sections in table order is one sequential
    pass over the file.
    """

    def __init__(self, path: str, dimensions: int):
        self._name = os.path.basename(path)
        self._codec = RecordCodec(dimensions)
        self._stream: BinaryIO = open(path, "rb")
        try:
            self._entries = self._read_table(dimensions)
        except BaseException:
            self._stream.close()
            raise

    def _read_table(self, dimensions: int) -> List[Tuple[Any, ...]]:
        stream, name = self._stream, self._name
        raw = read_exact(stream, _HEADER.size, f"delta pack {name} header")
        magic, version, dims, n_sections, table_crc = _HEADER.unpack(raw)
        if magic != PACK_MAGIC:
            raise CorruptFileError(f"bad delta pack magic {magic!r}")
        if version != PACK_VERSION:
            raise CorruptFileError(f"unsupported delta pack version {version}")
        if not 1 <= dims <= MAX_DIMENSIONS:
            raise CorruptFileError(
                f"delta pack header has implausible dimensions {dims}"
            )
        if dims != dimensions:
            raise CorruptFileError(
                f"delta pack holds {dims}-d records, reader expects {dimensions}-d"
            )
        if n_sections < 1:
            raise CorruptFileError(f"delta pack {name} has no sections")
        table = read_exact(
            stream, n_sections * _ENTRY.size, f"delta pack {name} section table"
        )
        actual = zlib.crc32(table)
        if actual != table_crc:
            raise ChecksumError(
                f"delta pack {name} section table failed its CRC32 check "
                f"(stored {table_crc:#010x}, computed {actual:#010x})"
            )
        entries = list(_ENTRY.iter_unpack(table))
        expected = stream.tell()
        for number, (base_ref, base_rows, n_appended, offset, _) in enumerate(entries):
            if base_ref < -1:
                raise CorruptFileError(
                    f"delta pack {name} section {number} has base_ref {base_ref}"
                )
            if offset != expected:
                raise CorruptFileError(
                    f"delta pack {name} section {number} starts at {offset}, "
                    f"the sections before it end at {expected}"
                )
            expected += (base_rows + 7) // 8 + n_appended * self._codec.record_bytes
        size = stream.seek(0, os.SEEK_END)
        if size != expected:
            raise CorruptFileError(
                f"delta pack {name} truncated or padded: holds {size} bytes, "
                f"its section table describes {expected}"
            )
        return entries

    def __len__(self) -> int:
        return len(self._entries)

    def read_section(self, number: int) -> DeltaSection:
        """Read, CRC-verify and decode section ``number``."""
        if not 0 <= number < len(self._entries):
            raise CorruptFileError(
                f"delta pack {self._name} has no section {number} "
                f"(it holds {len(self._entries)})"
            )
        base_ref, base_rows, n_appended, offset, crc = self._entries[number]
        what = f"delta pack {self._name} section {number}"
        self._stream.seek(offset)
        bitmap = read_exact(self._stream, (base_rows + 7) // 8, f"{what} bitmap")
        records = read_exact(
            self._stream, n_appended * self._codec.record_bytes, f"{what} records"
        )
        actual = zlib.crc32(records, zlib.crc32(bitmap))
        if actual != crc:
            raise ChecksumError(
                f"{what} failed its CRC32 check "
                f"(stored {crc:#010x}, computed {actual:#010x})"
            )
        live = np.unpackbits(
            np.frombuffer(bitmap, dtype=np.uint8), bitorder="little"
        )[:base_rows].astype(bool)
        if n_appended:
            ids, vectors = self._codec.decode(records)
        else:
            ids = np.zeros(0, dtype=np.int64)
            vectors = np.zeros((0, self._codec.dimensions), dtype=np.float32)
        return DeltaSection(int(base_ref), live, ids, vectors)

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "DeltaPackReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
