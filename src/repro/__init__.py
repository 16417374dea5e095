"""repro — reproduction of "The Quality vs. Time Trade-off for Approximate
Image Descriptor Search" (Sigurðardóttir, Hauksson, Jónsson, Amsaleg; ICDE
Workshops / EMMA 2005).

The library implements the paper's full system from scratch:

* a chunked approximate nearest-neighbor search engine over image
  descriptors (:mod:`repro.core`),
* the two chunk-forming strategies under study — SR-tree leaves
  (:mod:`repro.srtree`, :class:`repro.chunking.SRTreeChunker`) and the BAG
  clustering algorithm (:class:`repro.chunking.BagClusterer`) — plus the
  round-robin baseline and a size cap on BAG's clusters
  (:func:`repro.chunking.cap_chunk_sizes`), the paper's proposed middle
  ground,
* the two-file on-disk chunk index (:mod:`repro.storage`),
* a calibrated simulated disk/CPU substrate reproducing the paper's 2005
  hardware timings (:mod:`repro.simio`),
* synthetic descriptor workloads standing in for the paper's 5M-descriptor
  collection (:mod:`repro.workloads`), and
* experiment drivers regenerating every table and figure
  (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import (SyntheticImageConfig, generate_collection,
...                    SRTreeChunker, build_chunk_index, ChunkSearcher)
>>> collection = generate_collection(SyntheticImageConfig(n_images=50, seed=7))
>>> chunks = SRTreeChunker(leaf_capacity=64).form_chunks(collection)
>>> index = build_chunk_index(chunks.retained, chunks.chunk_set, name="SR/demo")
>>> result = ChunkSearcher(index).search(collection.vectors[0], k=10)
>>> result.completed
True
"""

from .chunking import (
    BagClusterer,
    Chunker,
    ChunkingResult,
    RoundRobinChunker,
    SRTreeChunker,
    cap_chunk_sizes,
    estimate_mpi,
)
from .core import (
    BatchChunkSearcher,
    BatchSearchResult,
    ChunkIndex,
    ChunkIndexMaintainer,
    EpsilonApproximation,
    ChunkSearcher,
    DescriptorCollection,
    ExactCompletion,
    GroundTruthStore,
    MaxChunks,
    NeighborSet,
    SearchResult,
    StreamingChunkIndex,
    TimeBudget,
    build_chunk_index,
    exact_knn,
    exact_knn_batch,
    precision_at_k,
    verify_streaming_index,
)
from .simio import PAPER_2005_COST_MODEL, CostModel, CpuModel, DiskModel
from .storage import delete_op, insert_op
from .system import ImageRetrievalSystem
from .workloads import (
    SyntheticImageConfig,
    Workload,
    dataset_queries,
    generate_collection,
    space_queries,
)

__version__ = "1.0.0"

__all__ = [
    "BagClusterer",
    "BatchChunkSearcher",
    "BatchSearchResult",
    "Chunker",
    "ChunkingResult",
    "RoundRobinChunker",
    "SRTreeChunker",
    "cap_chunk_sizes",
    "estimate_mpi",
    "ChunkIndex",
    "ChunkIndexMaintainer",
    "EpsilonApproximation",
    "ChunkSearcher",
    "DescriptorCollection",
    "ExactCompletion",
    "GroundTruthStore",
    "MaxChunks",
    "NeighborSet",
    "SearchResult",
    "StreamingChunkIndex",
    "TimeBudget",
    "build_chunk_index",
    "delete_op",
    "exact_knn",
    "exact_knn_batch",
    "insert_op",
    "precision_at_k",
    "verify_streaming_index",
    "PAPER_2005_COST_MODEL",
    "CostModel",
    "CpuModel",
    "DiskModel",
    "ImageRetrievalSystem",
    "SyntheticImageConfig",
    "Workload",
    "dataset_queries",
    "generate_collection",
    "space_queries",
    "__version__",
]
