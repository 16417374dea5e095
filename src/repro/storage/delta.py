"""Per-chunk delta segments: tombstone bitmap over a base chunk + appends.

The streaming index checkpoints a *dirty* chunk (one mutated since the
last checkpoint) not by rewriting the whole base generation but by
publishing a small segment file that expresses the chunk's current
contents relative to it::

    header : magic "EFF2DSEG", version u32, dims u32,
             base_ref i32 (-1 = no base chunk), base_rows u32,
             n_appended u32, crc32 u32
    bitmap : ceil(base_rows / 8) bytes — bit set = base row still live
    records: n_appended descriptor records, encoded with the shared
             record codec from :mod:`repro.storage.records`

A chunk's logical contents are reconstructed as the live base rows *in
base order* followed by the appended records *in insertion order* —
exactly the order the in-memory maintainer holds them, which is what
makes recovered centroids bit-identical to an uncrashed process
(``numpy.mean`` over float64 depends on row order).

Segments are published through :func:`repro.storage.atomic.atomic_output`
(write-temp, fsync, rename), so a crash mid-checkpoint leaves the
previous manifest's segments intact and a half-written segment never
becomes visible under its final name.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import NamedTuple, Optional

import numpy as np

from .atomic import atomic_output
from .errors import MAX_DIMENSIONS, ChecksumError, CorruptFileError, read_exact
from .records import RecordCodec

__all__ = [
    "DELTA_MAGIC",
    "DELTA_VERSION",
    "DeltaSegment",
    "write_delta_segment",
    "read_delta_segment",
]

DELTA_MAGIC = b"EFF2DSEG"
DELTA_VERSION = 1

_HEADER = struct.Struct("<8sIIiIII")
#: Reject headers whose implied payload exceeds this (1 TiB).
_MAX_PAYLOAD_BYTES = 1 << 40


class DeltaSegment(NamedTuple):
    """Decoded contents of one delta segment file.

    Attributes
    ----------
    base_ref:
        Chunk id in the base generation this delta applies to, or ``-1``
        for a pure append segment (a chunk born after the base build).
    live:
        Boolean mask over the base chunk's rows (empty for ``base_ref ==
        -1``); True rows are still members.
    ids:
        Appended descriptor ids (int64).
    vectors:
        Appended descriptor vectors (float32, ``(n_appended, dims)``).
    """

    base_ref: int
    live: np.ndarray
    ids: np.ndarray
    vectors: np.ndarray


def write_delta_segment(
    path: str,
    dimensions: int,
    base_ref: int,
    live: Optional[np.ndarray],
    ids: np.ndarray,
    vectors: np.ndarray,
) -> int:
    """Atomically publish one delta segment; returns bytes written.

    ``live`` is the tombstone bitmap source: a boolean mask over the base
    chunk's rows (required when ``base_ref >= 0``, must be ``None`` or
    empty otherwise).  ``ids``/``vectors`` are the appended records (may
    be empty when the delta only tombstones).
    """
    codec = RecordCodec(dimensions)
    base_ref = int(base_ref)
    if base_ref >= 0:
        if live is None:
            raise ValueError("a based delta segment needs a liveness mask")
        mask = np.asarray(live, dtype=bool).reshape(-1)
    else:
        if live is not None and np.asarray(live).size:
            raise ValueError("a baseless delta segment cannot carry a mask")
        mask = np.zeros(0, dtype=bool)
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    vectors = np.asarray(vectors, dtype=np.float32)
    if ids.size == 0:
        vectors = vectors.reshape(0, dimensions)
    if vectors.ndim != 2 or vectors.shape != (ids.size, dimensions):
        raise ValueError("appended ids/vectors shape mismatch")
    if base_ref < 0 and ids.size == 0:
        raise ValueError("a delta segment must tombstone or append something")

    bitmap = np.packbits(mask, bitorder="little").tobytes()
    records = codec.encode(ids, vectors) if ids.size else b""
    crc = zlib.crc32(records, zlib.crc32(bitmap))
    header = _HEADER.pack(
        DELTA_MAGIC, DELTA_VERSION, dimensions, base_ref, mask.size, ids.size, crc
    )
    with atomic_output(path) as stream:
        stream.write(header)
        stream.write(bitmap)
        stream.write(records)
    return len(header) + len(bitmap) + len(records)


def read_delta_segment(path: str, dimensions: int) -> DeltaSegment:
    """Read and CRC-verify one delta segment."""
    codec = RecordCodec(dimensions)
    with open(path, "rb") as stream:
        raw = stream.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise CorruptFileError(f"delta segment {os.path.basename(path)} truncated")
        magic, version, dims, base_ref, base_rows, n_appended, crc = _HEADER.unpack(raw)
        if magic != DELTA_MAGIC:
            raise CorruptFileError(f"bad delta segment magic {magic!r}")
        if version != DELTA_VERSION:
            raise CorruptFileError(f"unsupported delta segment version {version}")
        if not 1 <= dims <= MAX_DIMENSIONS:
            raise CorruptFileError(
                f"delta segment header has implausible dimensions {dims}"
            )
        if dims != dimensions:
            raise CorruptFileError(
                f"delta segment holds {dims}-d records, reader expects {dimensions}-d"
            )
        bitmap_bytes = (base_rows + 7) // 8
        if bitmap_bytes + n_appended * codec.record_bytes > _MAX_PAYLOAD_BYTES:
            raise CorruptFileError(
                "delta segment header implies implausible size "
                f"(base_rows={base_rows}, n_appended={n_appended})"
            )
        bitmap = read_exact(stream, bitmap_bytes, "delta segment bitmap")
        records = read_exact(
            stream, n_appended * codec.record_bytes, "delta segment records"
        )
    actual = zlib.crc32(records, zlib.crc32(bitmap))
    if actual != crc:
        raise ChecksumError(
            f"delta segment {os.path.basename(path)} failed its CRC32 check "
            f"(stored {crc:#010x}, computed {actual:#010x})"
        )
    if base_rows:
        live = np.unpackbits(
            np.frombuffer(bitmap, dtype=np.uint8), bitorder="little"
        )[:base_rows].astype(bool)
    else:
        live = np.zeros(0, dtype=bool)
    if n_appended:
        ids, vectors = codec.decode(records)
    else:
        ids = np.zeros(0, dtype=np.int64)
        vectors = np.zeros((0, dimensions), dtype=np.float32)
    return DeltaSegment(int(base_ref), live, ids, vectors)
