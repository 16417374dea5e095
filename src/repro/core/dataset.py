"""Descriptor collection data model.

The paper's collection is 5,017,298 local descriptors computed over 52,273
images.  Each descriptor is a 24-dimensional float vector plus an integer
identifier, stored as a 100-byte record (24 x 4-byte floats + 4-byte id),
and the whole collection lives sequentially in a single file (paper
section 4.1).

:class:`DescriptorCollection` is the in-memory form used throughout the
library: a ``(n, d)`` float32 matrix plus parallel id arrays.  The on-disk
100-byte record layout is implemented in :mod:`repro.storage.records`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

import numpy as np

__all__ = ["DescriptorCollection", "DEFAULT_DIMENSIONS", "DESCRIPTOR_RECORD_BYTES"]

#: Dimensionality of the paper's local descriptors.
DEFAULT_DIMENSIONS = 24

#: On-disk bytes per descriptor record: 24 float32 components + int32 id.
DESCRIPTOR_RECORD_BYTES = DEFAULT_DIMENSIONS * 4 + 4


@dataclasses.dataclass
class DescriptorCollection:
    """A set of local image descriptors.

    Attributes
    ----------
    vectors:
        ``(n, d)`` float32 matrix of descriptor components.
    ids:
        ``(n,)`` int64 array of globally unique descriptor identifiers.
        Ground truth, precision measurement and the on-disk chunk format all
        refer to descriptors by these ids, never by row position.
    image_ids:
        ``(n,)`` int64 array mapping each descriptor to its source image.
        Local description schemes yield a few hundred descriptors per image
        (paper section 4.1); image-level search (the paper's future work,
        implemented in :mod:`repro.extensions.multi_descriptor`) votes over
        this mapping.
    """

    vectors: np.ndarray
    ids: np.ndarray
    image_ids: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        self.image_ids = np.ascontiguousarray(self.image_ids, dtype=np.int64)
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {self.vectors.shape}")
        n = self.vectors.shape[0]
        if self.ids.shape != (n,):
            raise ValueError(
                f"ids shape {self.ids.shape} does not match {n} vectors"
            )
        if self.image_ids.shape != (n,):
            raise ValueError(
                f"image_ids shape {self.image_ids.shape} does not match {n} vectors"
            )

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls, dimensions: int = DEFAULT_DIMENSIONS) -> "DescriptorCollection":
        """An empty collection of the given dimensionality."""
        return cls(
            vectors=np.empty((0, dimensions), dtype=np.float32),
            ids=np.empty(0, dtype=np.int64),
            image_ids=np.empty(0, dtype=np.int64),
        )

    # -- basic protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimensions(self) -> int:
        """Dimensionality ``d`` of the descriptor space."""
        return self.vectors.shape[1]

    @property
    def storage_bytes(self) -> int:
        """Bytes this collection occupies in the paper's 100-byte record layout."""
        return len(self) * (self.dimensions * 4 + 4)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.vectors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DescriptorCollection):
            return NotImplemented
        return (
            np.array_equal(self.vectors, other.vectors)
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.image_ids, other.image_ids)
        )

    # -- selection --------------------------------------------------------

    def take(self, row_indices: Sequence[int]) -> "DescriptorCollection":
        """New collection containing the given rows, in the given order."""
        idx = np.asarray(row_indices, dtype=np.intp)
        return DescriptorCollection(
            vectors=self.vectors[idx],
            ids=self.ids[idx],
            image_ids=self.image_ids[idx],
        )

    def mask(self, keep: np.ndarray) -> "DescriptorCollection":
        """New collection keeping rows where ``keep`` is True."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (len(self),):
            raise ValueError(
                f"mask shape {keep.shape} does not match collection of {len(self)}"
            )
        return DescriptorCollection(
            vectors=self.vectors[keep],
            ids=self.ids[keep],
            image_ids=self.image_ids[keep],
        )

    # -- statistics -------------------------------------------------------

    def centroid(self) -> np.ndarray:
        """Mean vector of the collection (float64)."""
        if len(self) == 0:
            raise ValueError("centroid of an empty collection is undefined")
        return self.vectors.astype(np.float64).mean(axis=0)

    def norms(self) -> np.ndarray:
        """Euclidean norm (float64) of every descriptor (used by the
        norm-threshold outlier filter the paper mentions in section 5.2)."""
        return np.linalg.norm(self.vectors.astype(np.float64), axis=1)

    def dimension_ranges(self, trim_fraction: float = 0.0) -> np.ndarray:
        """Per-dimension ``(low, high)`` value ranges, optionally trimmed.

        With ``trim_fraction=0.05`` this is exactly the paper's SQ-workload
        preprocessing: "After discarding the top and bottom 5%, we stored
        the remaining value range of each dimension" (section 5.3).

        Returns an array of shape ``(d, 2)``, dtype float64.
        """
        if not 0.0 <= trim_fraction < 0.5:
            raise ValueError(f"trim_fraction must be in [0, 0.5), got {trim_fraction}")
        if len(self) == 0:
            raise ValueError("ranges of an empty collection are undefined")
        lo = np.quantile(self.vectors, trim_fraction, axis=0)
        hi = np.quantile(self.vectors, 1.0 - trim_fraction, axis=0)
        return np.stack([lo, hi], axis=1)
