"""Uniform-size chunks from SR-tree leaves (paper section 2).

"First, we added a parameter to control the size of the leaves, and second,
we added a method to generate chunks from the leaves, thus throwing away
the upper levels of the tree."

The chunker bulk-builds an SR-tree with the requested leaf capacity and
emits one chunk per leaf.  It never discards outliers ("this approach does
not handle outliers naturally"); the experiments run it on collections from
which BAG's outliers were already removed, mirroring the paper's protocol.

:func:`cap_chunk_sizes` applies the same leaves to another chunker's
result: every chunk over a size cap is cut into the fewest leaves that fit
— the paper's section 7 proposal ("uniform chunk size as the first
priority", then the smallest intra-chunk dissimilarity) as one dial between
BAG and SR.
"""

from __future__ import annotations

import math
import time
from typing import List, Sequence

import numpy as np

from ..core.chunk import Chunk, ChunkSet, summarize_members
from ..core.dataset import DescriptorCollection
from ..srtree.bulk_load import ordered_partition
from .base import Chunker, ChunkingResult

__all__ = ["SRTreeChunker", "cap_chunk_sizes"]


def _leaf_chunks(
    rows: np.ndarray, bounds: Sequence[int], ordered: np.ndarray
) -> List[Chunk]:
    """One chunk per leaf of an :func:`ordered_partition`, whose member
    rows are ``rows[lo:hi]``.

    The build leaves the vectors in chunk order, so a leaf's members are a
    contiguous slice of ``ordered`` — the values a gather by row would
    give, in the same order, hence the same summary bits.
    """
    chunks: List[Chunk] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        centroid, radius = summarize_members(ordered[lo:hi])
        chunks.append(
            Chunk(member_rows=rows[lo:hi], centroid=centroid, radius=radius)
        )
    return chunks


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
        chunks = _leaf_chunks(
            *ordered_partition(collection.vectors, self.leaf_capacity)
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


def cap_chunk_sizes(result: ChunkingResult, s: float) -> ChunkingResult:
    """Cut every chunk of ``result`` larger than ``s`` times its mean size.

    With ``cap = floor(s * mean chunk size)``, a chunk of ``m > cap``
    members is cut into the fewest static-build leaves that fit:
    ``p = ceil(m / cap)`` pieces, from :func:`ordered_partition` over its
    members at leaf capacity ``ceil(m / p)`` (``p - 1`` full leaves and one
    remainder, each at most ``cap``), which take its place in order.  Every
    other chunk passes through as the same object, so ``s = inf`` gives
    ``result``'s chunks unchanged.  Outliers and the retained collection
    are ``result``'s.
    """
    if not s >= 1.0:
        raise ValueError(f"the size cap factor must be at least 1, got {s}")
    retained = result.retained
    limit = s * result.mean_chunk_size
    chunks: List[Chunk] = []
    for chunk in result.chunk_set:
        m = len(chunk)
        if m <= limit:
            chunks.append(chunk)
            continue
        pieces = math.ceil(m / math.floor(limit))
        members = chunk.member_rows
        rows, bounds, ordered = ordered_partition(
            retained.vectors[members], math.ceil(m / pieces)
        )
        chunks.extend(_leaf_chunks(members[rows], bounds, ordered))
    return ChunkingResult(
        original=result.original,
        retained=retained,
        chunk_set=ChunkSet(retained, chunks),
        outlier_rows=result.outlier_rows,
        build_info=dict(result.build_info),
    )
