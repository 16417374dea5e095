"""Uniform-size chunks from SR-tree leaves (paper section 2).

"First, we added a parameter to control the size of the leaves, and second,
we added a method to generate chunks from the leaves, thus throwing away
the upper levels of the tree."

The chunker bulk-builds an SR-tree with the requested leaf capacity and
emits one chunk per leaf.  It never discards outliers ("this approach does
not handle outliers naturally"); the experiments run it on collections from
which BAG's outliers were already removed, mirroring the paper's protocol.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from ..core.chunk import Chunk, ChunkSet, summarize_members
from ..core.dataset import DescriptorCollection
from ..srtree.bulk_load import ordered_partition
from .base import Chunker, ChunkingResult

__all__ = ["SRTreeChunker"]


class SRTreeChunker(Chunker):
    """One chunk per statically built SR-tree leaf.

    Parameters
    ----------
    leaf_capacity:
        Target descriptors per chunk; every chunk has exactly this many
        except the single remainder chunk.
    """

    name = "SR"

    def __init__(self, leaf_capacity: int):
        if leaf_capacity < 1:
            raise ValueError(f"leaf capacity must be positive, got {leaf_capacity}")
        self.leaf_capacity = int(leaf_capacity)

    def form_chunks(self, collection: DescriptorCollection) -> ChunkingResult:
        if len(collection) == 0:
            raise ValueError("cannot chunk an empty collection")
        # Build-time wall-clock measurement: feeds build_info only,
        # never the simulated query cost (hence the lint waiver).
        started = time.perf_counter()  # repro-lint: disable=CLK001
        rows, bounds, ordered = ordered_partition(
            collection.vectors, self.leaf_capacity
        )
        # The build leaves the vectors in chunk order, so a leaf's members
        # are a contiguous slice — the values ``collection.vectors[rows]``
        # would gather, in the same order, hence the same summary bits.
        chunks: List[Chunk] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            centroid, radius = summarize_members(ordered[lo:hi])
            chunks.append(
                Chunk(member_rows=rows[lo:hi], centroid=centroid, radius=radius)
            )
        elapsed = time.perf_counter() - started  # repro-lint: disable=CLK001
        return ChunkingResult(
            original=collection,
            retained=collection,
            chunk_set=ChunkSet(collection, chunks),
            outlier_rows=np.empty(0, dtype=np.intp),
            build_info={
                "build_seconds": elapsed,
                "leaf_capacity": float(self.leaf_capacity),
            },
        )
