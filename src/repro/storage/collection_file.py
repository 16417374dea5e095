"""The raw descriptor collection file.

Paper section 4.1: "Images belonging to the collection are described
off-line and typically stored sequentially in a single file."  This module
implements that file: a small header followed by the 100-byte descriptor
records (:mod:`repro.storage.records`), with image ids stored as a second
record stream so the image mapping survives round trips.

Layout::

    magic    : 8 bytes  b"EFF2COLL"
    version  : uint32
    dims     : uint32
    count    : uint64
    records  : count x [id:int32][vector:float32 x d]
    imageids : count x int64
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO, Union

import numpy as np

from ..core.dataset import DescriptorCollection
from .atomic import atomic_output
from .errors import MAX_DIMENSIONS, CorruptFileError, read_exact
from .records import RecordCodec

__all__ = ["write_collection_file", "read_collection_file", "COLLECTION_MAGIC"]

COLLECTION_MAGIC = b"EFF2COLL"
_VERSION = 1
_HEADER = struct.Struct("<8sIIQ")
#: Reject headers whose implied payload exceeds this (1 TiB) — guards
#: against corrupted ``count`` fields triggering huge reads/allocations.
_MAX_PAYLOAD_BYTES = 1 << 40

PathOrFile = Union[str, os.PathLike, BinaryIO]


def write_collection_file(
    target: Union[str, os.PathLike], collection: DescriptorCollection
) -> None:
    """Serialize a collection to the sequential single-file format,
    published atomically (write-temp, fsync, rename) so a crash mid-write
    never leaves a truncated collection behind."""
    codec = RecordCodec(collection.dimensions)
    header = _HEADER.pack(
        COLLECTION_MAGIC, _VERSION, collection.dimensions, len(collection)
    )
    with atomic_output(target) as stream:
        stream.write(header)
        stream.write(codec.encode(collection.ids, collection.vectors))
        stream.write(
            np.ascontiguousarray(collection.image_ids, dtype="<i8").tobytes()
        )


def read_collection_file(source: PathOrFile) -> DescriptorCollection:
    """Load a collection previously written by :func:`write_collection_file`."""
    owns = isinstance(source, (str, os.PathLike))
    stream: BinaryIO = open(source, "rb") if owns else source  # type: ignore[arg-type]
    try:
        raw_header = stream.read(_HEADER.size)
        if len(raw_header) != _HEADER.size:
            raise CorruptFileError("collection file too short for header")
        magic, version, dimensions, count = _HEADER.unpack(raw_header)
        if magic != COLLECTION_MAGIC:
            raise CorruptFileError(f"bad collection file magic {magic!r}")
        if version != _VERSION:
            raise CorruptFileError(
                f"unsupported collection file version {version}"
            )
        # A corrupted uint32 dims field scales the per-record size, so it
        # must be bounded *before* the count guard below can mean anything
        # (tiny count x enormous record size still allocates gigabytes).
        if not 1 <= dimensions <= MAX_DIMENSIONS:
            raise CorruptFileError(
                f"collection file header has implausible dimensions "
                f"{dimensions} (expected 1..{MAX_DIMENSIONS})"
            )
        codec = RecordCodec(dimensions)
        # A corrupted uint64 count would make stream.read blow up (or try
        # to allocate petabytes) before the truncation check can fire.
        if count * (codec.record_bytes + 8) > _MAX_PAYLOAD_BYTES:
            raise CorruptFileError(
                f"collection file header implies implausible size "
                f"(count={count}, dims={dimensions})"
            )
        payload = read_exact(
            stream, count * codec.record_bytes, "collection file records"
        )
        ids, vectors = codec.decode(payload)
        raw_images = read_exact(stream, count * 8, "collection file image ids")
        image_ids = np.frombuffer(raw_images, dtype="<i8").astype(np.int64)
        return DescriptorCollection(vectors=vectors, ids=ids, image_ids=image_ids)
    finally:
        if owns:
            stream.close()
