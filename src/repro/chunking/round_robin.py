"""Round-robin chunking — the paper's quality strawman.

Section 1.1: "by distributing descriptors to chunks in a round-robin
manner, chunks of uniform size are obtained, but the quality will suffer."
Descriptor ``i`` goes to chunk ``i mod n_chunks``: perfectly uniform sizes,
no spatial coherence at all.  It is the strawman row of the size-cap
ablation (``ablation_size_cap``).
"""

from __future__ import annotations

import numpy as np

from ..core.chunk import Chunk, ChunkSet
from ..core.dataset import DescriptorCollection
from .base import Chunker, ChunkingResult

__all__ = ["RoundRobinChunker"]


class RoundRobinChunker(Chunker):
    """Assign descriptor ``i`` to chunk ``i mod n_chunks``."""

    name = "RR"

    def __init__(self, n_chunks: int):
        if n_chunks < 1:
            raise ValueError(f"need at least one chunk, got {n_chunks}")
        self.n_chunks = int(n_chunks)

    def form_chunks(self, collection: DescriptorCollection) -> ChunkingResult:
        n = len(collection)
        if n == 0:
            raise ValueError("cannot chunk an empty collection")
        n_chunks = min(self.n_chunks, n)
        assignment = np.arange(n) % n_chunks
        chunks = [
            Chunk.from_rows(collection, np.flatnonzero(assignment == c))
            for c in range(n_chunks)
        ]
        return ChunkingResult(
            original=collection,
            retained=collection,
            chunk_set=ChunkSet(collection, chunks),
            outlier_rows=np.empty(0, dtype=np.intp),
            build_info={"n_chunks": float(n_chunks)},
        )
