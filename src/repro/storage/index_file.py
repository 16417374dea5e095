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

Rectangle block (``2 * 4 * d`` bytes per chunk, then 4)::

    lower : float32 x d   (one lower/upper pair per chunk,
    upper : float32 x d    in entry order)
    crc32 : uint32        of all the pairs above

A query's *ranking scan* (centroid + radius + location) covers header and
entries, which is what :func:`index_file_bytes` — the quantity the disk
model charges at query start — measures.  The rectangle block behind them
is host-side acceleration data the 2005 system never reads (the pruner
uses it to skip scans whose simulated cost is charged regardless), so,
like the chunk file's CRC table, it is not part of that charge.

Nothing *recomputable from validated values* is stored: the entries carry
no checksum, so every stored value is validated on read, and what follows
from validated values (the centroid norms the ranking kernel uses) is
recomputed.  A member rectangle cannot be recomputed without reading the
chunk file, and a silently damaged one would let the pruner excuse a chunk
that holds a true neighbour — so the block is checksummed (a flipped bit is
:class:`ChecksumError`) and then cross-validated against the entries (a
CRC-consistent block that contradicts them is :class:`CorruptFileError`).
Member coordinates are float32, so four bytes hold each bound exactly; a
bound that is not float32-representable is rounded *outward* on write.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import List, Sequence, Tuple, Union

import numpy as np

from ..core.chunk import ChunkMeta
from .atomic import atomic_output
from .errors import MAX_DIMENSIONS, ChecksumError, CorruptFileError, read_exact

__all__ = [
    "write_index_file",
    "read_index_file",
    "index_file_bytes",
    "round_outward",
    "MAGIC",
    "VERSION",
]

MAGIC = b"EFF2CIDX"
#: The index-file format version (the only one read or written).
VERSION = 4
_HEADER = struct.Struct("<8sIIQ8s")
_CRC = struct.Struct("<I")
#: Reject headers whose implied payload exceeds this (1 TiB) — guards
#: against corrupted ``n_chunks``/``dims`` fields triggering huge reads.
_MAX_PAYLOAD_BYTES = 1 << 40


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


def _rectangle_dtype(dimensions: int) -> np.dtype:
    return np.dtype([("lower", "<f4", (dimensions,)), ("upper", "<f4", (dimensions,))])


def index_file_bytes(n_chunks: int, dimensions: int) -> int:
    """Size of the index file's ranking scan (header + entries) — what the
    disk model charges for the sequential index read at the start of every
    query.  The rectangle block behind the entries is not part of it."""
    return _HEADER.size + n_chunks * _entry_dtype(dimensions).itemsize


def round_outward(
    lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` as float32 with ``lower`` rounded toward ``-inf``
    and ``upper`` toward ``+inf``, so the float32 rectangle contains the
    float64 one.  A bound beyond the float32 range on its outward side
    becomes infinite."""
    with np.errstate(over="ignore"):
        lower32 = lower.astype(np.float32)
        upper32 = upper.astype(np.float32)
    lower32 = np.where(
        lower32 > lower, np.nextafter(lower32, np.float32(-np.inf)), lower32
    )
    upper32 = np.where(
        upper32 < upper, np.nextafter(upper32, np.float32(np.inf)), upper32
    )
    return lower32, upper32


def write_index_file(
    target: Union[str, os.PathLike], metas: Sequence[ChunkMeta]
) -> None:
    """Serialize chunk metadata, preserving chunk order, published
    atomically (write-temp, fsync, rename) so a crash mid-write never
    leaves a truncated index behind."""
    if not metas:
        raise ValueError("cannot write an empty index file")
    dimensions = metas[0].centroid.shape[0]
    entries = np.empty(len(metas), dtype=_entry_dtype(dimensions))
    rectangles = np.empty(len(metas), dtype=_rectangle_dtype(dimensions))
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
    rectangles["lower"], rectangles["upper"] = round_outward(
        np.stack([meta.lower for meta in metas]),
        np.stack([meta.upper for meta in metas]),
    )
    consistent = _rectangles_consistent(entries, rectangles)
    if not consistent.all():
        raise ValueError(
            f"chunk {int(np.argmin(consistent))}: rectangle contradicts the "
            "centroid and radius it is stored with"
        )

    block = rectangles.tobytes()
    payload = b"".join(
        (
            _HEADER.pack(MAGIC, VERSION, dimensions, len(metas), b"\x00" * 8),
            entries.tobytes(),
            block,
            _CRC.pack(zlib.crc32(block)),
        )
    )
    with atomic_output(target) as stream:
        stream.write(payload)


def _rectangles_consistent(entries: np.ndarray, rectangles: np.ndarray) -> np.ndarray:
    """Per-chunk bool mask: the stored rectangle is one the stored centroid
    and radius allow.

    Finite with ``lower <= upper``; the centroid, a mean of members, lies
    inside it; and it lies inside the sphere's bounding box, every member
    being within ``radius`` of the centroid.  Each comparison carries the
    rounding tolerance :meth:`Chunk.contains_all_members
    <repro.core.chunk.Chunk.contains_all_members>` uses, and the box is
    rounded outward exactly as the rectangle was.
    """
    centroid = entries["centroid"]
    lower, upper = rectangles["lower"], rectangles["upper"]
    with np.errstate(over="ignore"):  # a damaged radius may be ~1e308
        reach = (entries["radius"] * (1 + 1e-9) + 1e-9)[:, np.newaxis]
        box_lower, box_upper = round_outward(centroid - reach, centroid + reach)
    drift = np.abs(centroid) * 1e-9 + 1e-9
    valid: np.ndarray = (
        np.isfinite(lower)
        & np.isfinite(upper)
        & (lower <= upper)
        & (lower <= centroid + drift)
        & (upper >= centroid - drift)
        & (lower >= box_lower)
        & (upper <= box_upper)
    ).all(axis=1)
    return valid


def read_index_file(source: Union[str, os.PathLike]) -> List[ChunkMeta]:
    """Load chunk metadata back, in chunk order.

    Every entry is validated here — finite centroid and radius, ``radius
    >= 0``, a non-empty chunk on a non-empty page extent — so damaged
    bytes surface as :class:`CorruptFileError`, never as a ``ValueError``
    out of :class:`ChunkMeta` or as a NaN the completion proof would
    silently compare against.  The rectangle block is length-checked,
    CRC-checked (:class:`ChecksumError`) and then cross-validated against
    the entries (:func:`_rectangles_consistent`).
    """
    with open(source, "rb") as stream:
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
        block = read_exact(
            stream,
            n_chunks * _rectangle_dtype(dimensions).itemsize,
            "index file rectangle block",
        )
        (stored_crc,) = _CRC.unpack(
            read_exact(stream, _CRC.size, "index file rectangle checksum")
        )
        actual_crc = zlib.crc32(block)
        if actual_crc != stored_crc:
            raise ChecksumError(
                f"index file rectangle block failed its CRC32 check "
                f"(stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )
        rectangles = np.frombuffer(block, dtype=_rectangle_dtype(dimensions))
        consistent = _rectangles_consistent(entries, rectangles)
        if not consistent.all():
            raise CorruptFileError(
                f"index file entry {int(np.argmin(consistent))} has a corrupt "
                "rectangle (non-finite, lower > upper, centroid outside it, or "
                "outside the sphere's bounding box)"
            )
        # Columns out of the structured arrays once: per-entry field access
        # on a record is several times dearer than indexing a plain array.
        centroids = entries["centroid"].copy()
        lower = rectangles["lower"].astype(np.float64)
        upper = rectangles["upper"].astype(np.float64)
        scalars = zip(
            *(
                entries[name].tolist()
                for name in ("radius", "n_descriptors", "page_offset", "page_count")
            )
        )
        return [
            ChunkMeta(
                chunk_id=i,
                centroid=centroids[i],
                radius=radius,
                lower=lower[i],
                upper=upper[i],
                n_descriptors=n_descriptors,
                page_offset=page_offset,
                page_count=page_count,
            )
            for i, (radius, n_descriptors, page_offset, page_count) in enumerate(
                scalars
            )
        ]
