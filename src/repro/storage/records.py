"""Descriptor record codec.

The paper stores each descriptor as a 100-byte record: 24 float32
components plus an identifier (section 5.2: "As each descriptor has 24
dimensions, plus an identifier, each descriptor consumes 100 bytes").

We keep the identifier at 4 bytes (int32) to match the 100-byte figure for
24 dimensions; the codec generalizes to other dimensionalities with record
size ``4 * d + 4``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["RecordCodec"]


class RecordCodec:
    """Encode/decode packed ``[id:int32][components:float32 x d]`` records."""

    def __init__(self, dimensions: int):
        if dimensions <= 0:
            raise ValueError(f"dimensions must be positive, got {dimensions}")
        self.dimensions = int(dimensions)
        self._dtype = np.dtype(
            [("id", "<i4"), ("vector", "<f4", (self.dimensions,))]
        )

    @property
    def record_bytes(self) -> int:
        """Bytes per record (100 for the paper's 24-d descriptors)."""
        return self._dtype.itemsize

    def encode(self, ids: np.ndarray, vectors: np.ndarray) -> bytes:
        """Pack parallel id/vector arrays into a record buffer."""
        ids = np.asarray(ids)
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dimensions:
            raise ValueError(
                f"expected (n, {self.dimensions}) vectors, got shape {vectors.shape}"
            )
        if ids.shape != (vectors.shape[0],):
            raise ValueError("ids and vectors must be parallel arrays")
        if ids.size and (ids.max() > np.iinfo(np.int32).max or ids.min() < np.iinfo(np.int32).min):
            raise ValueError("descriptor id does not fit the on-disk int32 field")
        records = np.empty(vectors.shape[0], dtype=self._dtype)
        records["id"] = ids.astype(np.int32)
        records["vector"] = vectors
        return records.tobytes()

    def decode(self, buffer: bytes) -> Tuple[np.ndarray, np.ndarray]:
        """Unpack a record buffer into ``(ids int64, vectors float32)``.
        ``vectors`` is a read-only *view* of ``buffer``, strided by the
        record size: whoever needs it contiguous, promoted or writable
        makes the one copy that takes it there."""
        if len(buffer) % self.record_bytes != 0:
            raise ValueError(
                f"buffer of {len(buffer)} bytes is not a whole number of "
                f"{self.record_bytes}-byte records"
            )
        records = np.frombuffer(buffer, dtype=self._dtype)
        return records["id"].astype(np.int64), records["vector"]
