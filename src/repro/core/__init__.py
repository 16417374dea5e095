"""Core of the reproduction: the chunked approximate-search engine.

This package implements the paper's primary machinery:

* the descriptor data model (:mod:`~repro.core.dataset`),
* exact distance kernels (:mod:`~repro.core.distance`),
* the bounded neighbor set (:mod:`~repro.core.neighbors`),
* chunks and their centroid/radius summaries (:mod:`~repro.core.chunk`),
* the two-file chunk index (:mod:`~repro.core.chunk_index`),
* the ranked-scan search with stop rules and exact-completion proof
  (:mod:`~repro.core.search`, :mod:`~repro.core.stop_rules`),
* sequential-scan ground truth (:mod:`~repro.core.ground_truth`), and
* the paper's quality/time metrics (:mod:`~repro.core.metrics`,
  :mod:`~repro.core.trace`).
"""

from typing import Any, Optional

from .approx_rules import EpsilonApproximation
from .chunk import Chunk, ChunkMeta, ChunkSet
from .chunk_index import ChunkIndex, build_chunk_index
from .dataset import DEFAULT_DIMENSIONS, DescriptorCollection
from .ground_truth import GroundTruthStore, exact_knn, exact_knn_batch
from .ingest import (
    CheckpointReport,
    RecoveryReport,
    StreamingChunkIndex,
    verify_streaming_index,
)
from .maintenance import (
    ChunkIndexMaintainer,
    ChunkSnapshot,
    ChunkSummary,
    DeltaRef,
    MaintenanceStats,
)
from .metrics import (
    CompletionStats,
    QualityCurves,
    completion_stats,
    curves_from_traces,
    precision_at_k,
)
from .neighbors import Neighbor, NeighborSet
from .routing import CentroidRouter
from .search import (
    RANK_BY_CENTROID,
    RANK_BY_LOWER_BOUND,
    BatchSearchResult,
    ChunkSearcher,
    SearchResult,
)
from .stop_rules import (
    ExactCompletion,
    FirstOf,
    MaxChunks,
    SearchProgress,
    StopRule,
    TimeBudget,
)
from .trace import SearchTrace, TraceEvent


class BatchChunkSearcher(ChunkSearcher):
    """The engine under its pre-merge name, for the one caller that still
    passes ``router=`` (the benchmark harness).  The router must cover the
    index and is otherwise unused: every query ranks all chunks flat."""

    def __init__(
        self,
        index: ChunkIndex,
        *args: Any,
        router: Optional[CentroidRouter] = None,
        **kwargs: Any,
    ) -> None:
        if router is not None and router.n_chunks != index.n_chunks:
            raise ValueError(
                f"router covers {router.n_chunks} chunks, "
                f"index has {index.n_chunks}"
            )
        super().__init__(index, *args, **kwargs)


__all__ = [
    "BatchChunkSearcher",
    "BatchSearchResult",
    "EpsilonApproximation",
    "ChunkIndexMaintainer",
    "ChunkSnapshot",
    "ChunkSummary",
    "DeltaRef",
    "MaintenanceStats",
    "StreamingChunkIndex",
    "RecoveryReport",
    "CheckpointReport",
    "verify_streaming_index",
    "Chunk",
    "ChunkMeta",
    "ChunkSet",
    "ChunkIndex",
    "build_chunk_index",
    "DEFAULT_DIMENSIONS",
    "DescriptorCollection",
    "GroundTruthStore",
    "exact_knn",
    "exact_knn_batch",
    "CompletionStats",
    "QualityCurves",
    "completion_stats",
    "curves_from_traces",
    "precision_at_k",
    "Neighbor",
    "NeighborSet",
    "RANK_BY_CENTROID",
    "RANK_BY_LOWER_BOUND",
    "ChunkSearcher",
    "SearchResult",
    "ExactCompletion",
    "FirstOf",
    "MaxChunks",
    "SearchProgress",
    "StopRule",
    "TimeBudget",
    "SearchTrace",
    "TraceEvent",
]
