"""The index file: one fixed-size entry per chunk.

Paper section 4.2: "Each entry of the index stores the coordinates of the
centroid of each chunk and the radius of the chunk, as well as its location
in the chunk file.  The order of the entries in the index is identical to
the order of the chunks in the chunk file."

Binary layout
-------------
Header (32 bytes)::

    magic   : 8 bytes  b"EFF2CIDX"
    version : uint32
    dims    : uint32
    n_chunks: uint64
    reserved: 8 bytes

Entry (``8 * d + 8 + 8 + 4 + 4`` bytes each)::

    centroid    : float64 x d
    radius      : float64
    page_offset : uint64
    page_count  : uint32
    n_descriptors : uint32

and nothing else: a query's *ranking scan* (centroid + radius + location)
covers the whole file, which is what :func:`index_file_bytes` — the
quantity the disk model charges at query start — measures.  Nothing
derived is stored: the file carries no checksum, so every stored value is
validated on read, and a value that can be recomputed from validated ones
(the centroid norms the ranking kernel uses) is recomputed.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO, List, Sequence, Union

import numpy as np

from ..core.chunk import ChunkMeta
from .atomic import atomic_output
from .errors import MAX_DIMENSIONS, CorruptFileError, read_exact

__all__ = [
    "write_index_file",
    "read_index_file",
    "index_file_bytes",
    "MAGIC",
    "VERSION",
]

MAGIC = b"EFF2CIDX"
#: The index-file format version (the only one read or written).
VERSION = 3
_HEADER = struct.Struct("<8sIIQ8s")
#: Reject headers whose implied payload exceeds this (1 TiB) — guards
#: against corrupted ``n_chunks``/``dims`` fields triggering huge reads.
_MAX_PAYLOAD_BYTES = 1 << 40

PathOrFile = Union[str, os.PathLike, BinaryIO]


def _entry_dtype(dimensions: int) -> np.dtype:
    return np.dtype(
        [
            ("centroid", "<f8", (dimensions,)),
            ("radius", "<f8"),
            ("page_offset", "<u8"),
            ("page_count", "<u4"),
            ("n_descriptors", "<u4"),
        ]
    )


def index_file_bytes(n_chunks: int, dimensions: int) -> int:
    """Size of the index file (header + entries) — what the disk model
    charges for the sequential index read at the start of every query."""
    return _HEADER.size + n_chunks * _entry_dtype(dimensions).itemsize


def write_index_file(target: PathOrFile, metas: Sequence[ChunkMeta]) -> None:
    """Serialize chunk metadata, preserving chunk order."""
    if not metas:
        raise ValueError("cannot write an empty index file")
    dimensions = metas[0].centroid.shape[0]
    entries = np.empty(len(metas), dtype=_entry_dtype(dimensions))
    for i, meta in enumerate(metas):
        if meta.chunk_id != i:
            raise ValueError(
                f"index entries must be in chunk order: entry {i} has "
                f"chunk_id {meta.chunk_id}"
            )
        if meta.centroid.shape[0] != dimensions:
            raise ValueError("all centroids must share one dimensionality")
        entries[i]["centroid"] = meta.centroid
        entries[i]["radius"] = meta.radius
        entries[i]["page_offset"] = meta.page_offset
        entries[i]["page_count"] = meta.page_count
        entries[i]["n_descriptors"] = meta.n_descriptors

    header = _HEADER.pack(MAGIC, VERSION, dimensions, len(metas), b"\x00" * 8)
    if isinstance(target, (str, os.PathLike)):
        # Path target: publish atomically (write-temp, fsync, rename) so
        # a crash mid-write never leaves a truncated index behind.
        with atomic_output(target) as stream:
            stream.write(header)
            stream.write(entries.tobytes())
    else:
        target.write(header)
        target.write(entries.tobytes())
        target.flush()


def read_index_file(source: PathOrFile) -> List[ChunkMeta]:
    """Load chunk metadata back, in chunk order.

    Every entry is validated here — finite centroid and radius, ``radius
    >= 0``, a non-empty chunk on a non-empty page extent — so damaged
    bytes surface as :class:`CorruptFileError`, never as a ``ValueError``
    out of :class:`ChunkMeta` or as a NaN the completion proof would
    silently compare against.
    """
    owns = isinstance(source, (str, os.PathLike))
    stream: BinaryIO = open(source, "rb") if owns else source  # type: ignore[arg-type]
    try:
        raw_header = stream.read(_HEADER.size)
        if len(raw_header) != _HEADER.size:
            raise CorruptFileError("index file too short for header")
        magic, version, dimensions, n_chunks, _ = _HEADER.unpack(raw_header)
        if magic != MAGIC:
            raise CorruptFileError(f"bad index file magic {magic!r}")
        if version != VERSION:
            raise CorruptFileError(f"unsupported index file version {version}")
        # Bound dims before deriving the entry size from it, then bound the
        # implied payload — same discipline as the collection-file reader.
        if not 1 <= dimensions <= MAX_DIMENSIONS:
            raise CorruptFileError(
                f"index file header has implausible dimensions {dimensions} "
                f"(expected 1..{MAX_DIMENSIONS})"
            )
        dtype = _entry_dtype(dimensions)
        if n_chunks * dtype.itemsize > _MAX_PAYLOAD_BYTES:
            raise CorruptFileError(
                f"index file header implies implausible size "
                f"(n_chunks={n_chunks}, dims={dimensions})"
            )
        if n_chunks == 0:
            raise CorruptFileError("index file holds no chunk entries")
        raw = read_exact(stream, n_chunks * dtype.itemsize, "index file entries")
        entries = np.frombuffer(raw, dtype=dtype)
        valid = (
            np.isfinite(entries["centroid"]).all(axis=1)
            & np.isfinite(entries["radius"])
            & (entries["radius"] >= 0.0)
            & (entries["n_descriptors"] > 0)
            & (entries["page_count"] > 0)
        )
        if not valid.all():
            raise CorruptFileError(
                f"index file entry {int(np.argmin(valid))} is corrupt "
                "(non-finite centroid/radius, negative radius or empty extent)"
            )
        return [
            ChunkMeta(
                chunk_id=i,
                centroid=entries[i]["centroid"].copy(),
                radius=float(entries[i]["radius"]),
                n_descriptors=int(entries[i]["n_descriptors"]),
                page_offset=int(entries[i]["page_offset"]),
                page_count=int(entries[i]["page_count"]),
            )
            for i in range(n_chunks)
        ]
    finally:
        if owns:
            stream.close()
