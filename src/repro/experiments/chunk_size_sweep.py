"""Figures 6-7 — effect of chunk size (the optimal-chunk-size experiment).

The paper's Experiment 2 (section 5.6): after establishing that uniform
chunks are preferable, 16 SR-tree chunk indexes with leaf capacities
spanning three decades are built over the outlier-free collection, and the
time to find {1, 10, 20, 25, 28, 30} of the 30 nearest neighbors is
plotted against chunk size (log x-axis) for both workloads.

Expected shape (paper): a wide flat valley — chunk sizes across roughly a
decade in the middle of the range perform alike; very small chunks pay
per-chunk positioning and index overheads, very large chunks pay CPU for
irrelevant descriptors.  The "30 neighbors" series sits far above the
"1 neighbor" series and is more sensitive at the small end.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..chunking.srtree_chunker import SRTreeChunker
from ..core.chunk_index import build_chunk_index
from ..core.search import ChunkSearcher
from ..core.trace import SearchTrace
from .config import K, ExperimentScale
from .data import ExperimentData
from .results import FigureResult

__all__ = ["run_fig6", "run_fig7", "sweep_traces", "NEIGHBOR_TARGETS"]

#: The neighbor-count series the paper plots.
NEIGHBOR_TARGETS = (1, 10, 20, 25, 28, 30)

#: Per-scale cache of sweep traces: {scale: {(leaf, workload): traces}}.
_SWEEP_CACHE: Dict[ExperimentScale, Dict[Tuple[int, str], List[SearchTrace]]] = {}


def sweep_traces(
    data: ExperimentData, leaf_capacity: int, workload_name: str
) -> List[SearchTrace]:
    """Completion traces for one ladder index on one workload (cached).

    The sweep uses the SMALL retained collection (the paper's Experiment 2
    uses the 4,471,532 retained descriptors) and the first
    ``n_queries_sweep`` queries of the main workloads.
    """
    cache = _SWEEP_CACHE.setdefault(data.scale, {})
    key = (leaf_capacity, workload_name)
    if key not in cache:
        retained = data.retained("SMALL")
        chunking = SRTreeChunker(leaf_capacity).form_chunks(retained)
        index = build_chunk_index(
            chunking.retained, chunking.chunk_set, name=f"SR/leaf={leaf_capacity}"
        )
        searcher = ChunkSearcher(index, cost_model=data.scale.cost_model)
        workload = data.workloads[workload_name]
        n_sweep = data.scale.n_queries_sweep
        batch = searcher.search_batch(
            workload.queries[:n_sweep],
            k=K,
            true_neighbor_ids=data.truth_lists("SMALL", workload_name)[:n_sweep],
        )
        cache[key] = batch.traces()
    return cache[key]


def _sweep_figure(
    data: ExperimentData, workload_name: str, experiment_id: str
) -> FigureResult:
    ladder = [
        leaf for leaf in data.scale.chunk_size_ladder
        if leaf <= len(data.retained("SMALL"))
    ]
    targets = [t for t in NEIGHBOR_TARGETS if t <= K]

    def label(t: int) -> str:
        return "1 neighbor" if t == 1 else f"{t} neighbors"

    series: Dict[str, List[float]] = {label(t): [] for t in targets}
    for leaf in ladder:
        traces = sweep_traces(data, leaf, workload_name)
        for target in targets:
            total = sum(trace.time_to_find(target) for trace in traces)
            series[label(target)].append(float(total / len(traces)))
    return FigureResult(
        experiment_id=experiment_id,
        title=(
            f"Effect of different chunk sizes ({workload_name} workload): "
            "time (s) to find N neighbors"
        ),
        x_label="chunk size",
        x_values=ladder,
        series=series,
        precision=4,
    )


def run_fig6(data: ExperimentData) -> FigureResult:
    return _sweep_figure(data, "DQ", "fig6")


def run_fig7(data: ExperimentData) -> FigureResult:
    return _sweep_figure(data, "SQ", "fig7")
