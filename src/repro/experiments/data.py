"""Experiment data preparation: the six chunk indexes and workloads.

The paper's pipeline (section 5.2):

1. cluster the collection with BAG, yielding SMALL/MEDIUM/LARGE chunk
   indexes in succession from one run;
2. remove the outliers BAG identified;
3. build SR-tree chunk indexes of uniform size "roughly equal to the
   average size of the BAG clusters" over the retained descriptors —
   which is why Table 1 shows one Retained/Discarded column per size
   class, shared by BAG and SR.

:func:`prepare` runs that pipeline at a given
:class:`~repro.experiments.config.ExperimentScale` and packages everything
the per-figure drivers need, including lazily computed, cached
run-to-completion traces (the paper always runs queries to conclusion and
derives every metric from the per-chunk logs).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..chunking.bag import BagClusterer, estimate_mpi
from ..chunking.base import ChunkingResult
from ..chunking.srtree_chunker import SRTreeChunker
from ..core.chunk_index import ChunkIndex, build_chunk_index
from ..core.dataset import DescriptorCollection
from ..core.ground_truth import GroundTruthStore
from ..core.search import ChunkSearcher
from ..core.trace import SearchTrace
from ..workloads.queries import Workload, dataset_queries, space_queries
from ..workloads.synthetic import generate_collection
from .checkpoint import SweepCheckpoint
from .config import K, SIZE_CLASSES, ExperimentScale

__all__ = ["BuiltIndex", "ExperimentData", "prepare"]

#: The two chunk-forming families under comparison.
FAMILIES = ("BAG", "SR")

#: Factor handed to :func:`~repro.chunking.bag.estimate_mpi`.
MPI_FACTOR = 0.5


@dataclasses.dataclass
class BuiltIndex:
    """One of the six (family x size-class) chunk indexes."""

    family: str
    size_class: str
    chunking: ChunkingResult
    index: ChunkIndex

    @property
    def label(self) -> str:
        return f"{self.family}/{self.size_class}"


class ExperimentData:
    """Everything the experiment drivers consume, with trace caching."""

    def __init__(
        self,
        scale: ExperimentScale,
        collection: DescriptorCollection,
        mpi: float,
        indexes: Dict[Tuple[str, str], BuiltIndex],
        workloads: Dict[str, Workload],
        ground_truths: Dict[Tuple[str, str], GroundTruthStore],
    ):
        self.scale = scale
        self.collection = collection
        self.mpi = mpi
        self.indexes = indexes
        self.workloads = workloads
        self.ground_truths = ground_truths
        self._trace_cache: Dict[Tuple[str, str, str], List[SearchTrace]] = {}

    # -- access helpers ------------------------------------------------------

    def built(self, family: str, size_class: str) -> BuiltIndex:
        return self.indexes[(family, size_class)]

    def retained(self, size_class: str) -> DescriptorCollection:
        """The post-outlier-removal collection shared by both families."""
        return self.built("BAG", size_class).chunking.retained

    def ground_truth(self, size_class: str, workload_name: str) -> GroundTruthStore:
        return self.ground_truths[(size_class, workload_name)]

    def truth_lists(
        self, size_class: str, workload_name: str
    ) -> List[Optional[Sequence[int]]]:
        """Per-query true-neighbor ids in workload order — the form the
        search engine and both services take as ``true_neighbor_ids``."""
        truth = self.ground_truth(size_class, workload_name)
        return [truth.get(i) for i in range(len(self.workloads[workload_name]))]

    def sweep_inputs(
        self, experiment: str, family: str, size_class: str, workload_name: str,
        seed: int, checkpoint_path: Optional[Union[str, os.PathLike]],
        **settings: object,
    ) -> Tuple[
        Dict[str, object], SweepCheckpoint, ChunkIndex, Workload,
        List[Optional[Sequence[int]]],
    ]:
        """The start every sweep driver shares: its identity — scale, index,
        workload, seed, ``k``, query count and the driver's ``settings``,
        all that determines its output — the checkpoint that identity
        keys, and the index, workload and ground truth it runs on."""
        workload = self.workloads[workload_name]
        identity: Dict[str, object] = {
            "scale": self.scale.name, "family": family, "size_class": size_class,
            "workload": workload_name, "seed": int(seed), "k": K,
            "n_queries": len(workload), **settings,
        }
        checkpoint = SweepCheckpoint(
            checkpoint_path, meta={"experiment": experiment, **identity}
        )
        return (
            identity, checkpoint, self.built(family, size_class).index,
            workload, self.truth_lists(size_class, workload_name),
        )

    # -- traces ----------------------------------------------------------------

    def completion_traces(
        self, family: str, size_class: str, workload_name: str
    ) -> List[SearchTrace]:
        """Run-to-completion traces for one index/workload pair (cached).

        Every trace carries per-chunk true-match counts, so figures 2-5 and
        Table 2 all derive from this one set of runs — exactly how the
        paper gathered its metrics ("these metrics were logged after the
        processing of every chunk ... we always ran queries to conclusion").
        """
        key = (family, size_class, workload_name)
        if key not in self._trace_cache:
            built = self.built(family, size_class)
            searcher = ChunkSearcher(
                built.index, cost_model=self.scale.cost_model
            )
            batch = searcher.search_batch(
                self.workloads[workload_name].queries,
                k=K,
                true_neighbor_ids=self.truth_lists(size_class, workload_name),
            )
            self._trace_cache[key] = batch.traces()
        return self._trace_cache[key]


def _build_six_indexes(
    scale: ExperimentScale,
    collection: DescriptorCollection,
    mpi: float,
) -> Dict[Tuple[str, str], BuiltIndex]:
    thresholds = scale.bag_thresholds(len(collection))
    clusterer = BagClusterer(mpi=mpi, target_clusters=thresholds[-1])
    snapshots = clusterer.run_with_snapshots(collection, thresholds)
    by_threshold = {snap.threshold: snap for snap in snapshots}

    indexes: Dict[Tuple[str, str], BuiltIndex] = {}
    for size_class, threshold in zip(SIZE_CLASSES, thresholds):
        bag_result = clusterer.finalize(collection, by_threshold[threshold])
        bag_index = build_chunk_index(
            bag_result.retained, bag_result.chunk_set, name=f"BAG/{size_class}"
        )
        indexes[("BAG", size_class)] = BuiltIndex(
            "BAG", size_class, bag_result, bag_index
        )

        # SR-tree chunks of uniform size ~ the BAG average, over the same
        # retained (outlier-free) descriptors.
        leaf_capacity = max(2, int(round(bag_result.mean_chunk_size)))
        sr_result = SRTreeChunker(leaf_capacity).form_chunks(bag_result.retained)
        sr_index = build_chunk_index(
            sr_result.retained, sr_result.chunk_set, name=f"SR/{size_class}"
        )
        indexes[("SR", size_class)] = BuiltIndex(
            "SR", size_class, sr_result, sr_index
        )
    return indexes


def prepare(scale: ExperimentScale) -> ExperimentData:
    """Run the full data-preparation pipeline for one scale (cached).

    The cache is keyed by the whole frozen scale, so a
    ``dataclasses.replace`` variant of a named scale is prepared afresh.
    """
    if scale in _CACHE:
        return _CACHE[scale]

    collection = generate_collection(scale.synthetic)
    mpi = estimate_mpi(collection, factor=MPI_FACTOR, seed=scale.synthetic.seed)
    indexes = _build_six_indexes(scale, collection, mpi)

    workloads = {
        "DQ": dataset_queries(collection, scale.n_queries, seed=101),
        "SQ": space_queries(collection, scale.n_queries, seed=202),
    }

    ground_truths: Dict[Tuple[str, str], GroundTruthStore] = {}
    for size_class in SIZE_CLASSES:
        retained = indexes[("BAG", size_class)].chunking.retained
        for workload_name, workload in workloads.items():
            ground_truths[(size_class, workload_name)] = GroundTruthStore.compute(
                retained, workload.queries, K
            )

    data = ExperimentData(
        scale=scale,
        collection=collection,
        mpi=mpi,
        indexes=indexes,
        workloads=workloads,
        ground_truths=ground_truths,
    )
    _CACHE[scale] = data
    return data


_CACHE: Dict[ExperimentScale, ExperimentData] = {}
