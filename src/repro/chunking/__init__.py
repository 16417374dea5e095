"""Chunk-forming strategies.

The paper compares two extremes of the quality-vs-time design space:

* :class:`~repro.chunking.srtree_chunker.SRTreeChunker` — uniform chunk
  size from static SR-tree leaves (guarantees response time);
* :class:`~repro.chunking.bag.BagClusterer` — the BAG clustering algorithm
  (guarantees intra-chunk similarity).

A baseline and the paper's concluding proposal round out the space:

* :class:`~repro.chunking.round_robin.RoundRobinChunker` — uniform size
  with zero locality (section 1.1's strawman);
* :func:`~repro.chunking.srtree_chunker.cap_chunk_sizes` — BAG's clusters
  cut into SR leaves above a size cap: size first, dissimilarity second
  (section 7's recommendation), one dial from BAG to uniform size;
* :mod:`~repro.chunking.outliers` — the standalone norm-threshold outlier
  filter the paper cross-checked against BAG's.
"""

from .bag import BagClusterer, BagSnapshot, estimate_mpi
from .base import Chunker, ChunkingResult
from .outliers import (
    apply_outlier_rows,
    norm_fraction_outliers,
)
from .round_robin import RoundRobinChunker
from .srtree_chunker import SRTreeChunker, cap_chunk_sizes

__all__ = [
    "BagClusterer",
    "BagSnapshot",
    "estimate_mpi",
    "Chunker",
    "ChunkingResult",
    "apply_outlier_rows",
    "norm_fraction_outliers",
    "RoundRobinChunker",
    "SRTreeChunker",
    "cap_chunk_sizes",
]
