"""Test-side helpers over descriptor collections and chunks.

Importable from any test module (pytest puts ``tests/`` on the path when it
loads ``tests/conftest.py``): ``from descriptors import from_vectors``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.chunk import ChunkMeta, ChunkSet
from repro.core.dataset import DescriptorCollection
from repro.core.distance import squared_distances


def from_vectors(
    vectors: np.ndarray,
    ids: Optional[np.ndarray] = None,
    image_ids: Optional[np.ndarray] = None,
) -> DescriptorCollection:
    """A collection over ``vectors`` (one vector is promoted to one row),
    with ids defaulting to row numbers and every descriptor in an image of
    its own."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim == 1:
        vectors = vectors[np.newaxis, :]
    if ids is None:
        ids = np.arange(vectors.shape[0], dtype=np.int64)
    if image_ids is None:
        image_ids = np.asarray(ids, dtype=np.int64).copy()
    return DescriptorCollection(vectors=vectors, ids=ids, image_ids=image_ids)


def radii(chunk_set: ChunkSet) -> np.ndarray:
    """Minimum bounding radius of every chunk, dtype float64."""
    return np.asarray([chunk.radius for chunk in chunk_set], dtype=np.float64)


def sphere_lower_bound(meta: ChunkMeta, query: np.ndarray) -> float:
    """``max(0, d(query, centroid) - radius)``: the chunk sphere's lower
    bound on the distance from ``query`` to any member, computed directly."""
    distance = float(np.sqrt(squared_distances(query, meta.centroid)[0]))
    return max(0.0, distance - meta.radius)
