"""Fault-injection sweep: search quality vs storage fault rate.

The paper quantifies how much quality survives when *time* is cut short;
this driver quantifies how much survives when *storage* fails underneath
the same search.  For each fault rate ``r`` a seeded
:class:`~repro.faults.plan.FaultPlan` (``FaultPlan.balanced``: failures
split evenly across read errors / corruption / truncation, latency
spikes at the same rate) is injected into the exact search over one
(family, size class, workload) triple, and the run records:

* ``recall`` — mean precision@k against the fault-free ground truth
  (with fixed result size, precision equals recall, as in section 5.4);
* ``coverage`` — mean fraction of visited descriptors actually scanned;
* ``degraded_fraction`` — queries that lost at least one chunk;
* ``chunks_skipped`` — mean abandoned chunks per query;
* ``elapsed_ms`` — mean simulated completion time, where the retry,
  backoff and spike latency surfaces.

Everything is a pure function of ``(scale, rates, seed)``: two runs with
the same arguments emit byte-identical JSON reports, which the CI smoke
job asserts.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.metrics import precision_at_k, robustness_stats
from ..core.search import ChunkSearcher
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from .config import K
from .data import ExperimentData
from .results import FigureResult

__all__ = ["sweep", "DEFAULT_RATES", "DEFAULT_SEED"]

#: Fault rates swept by default (per-(query, chunk) failure probability;
#: spikes occur at the same rate — see ``FaultPlan.balanced``).
DEFAULT_RATES: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.2, 0.35)

#: Root seed of the default sweep (the paper's publication year).
DEFAULT_SEED = 2005


_SERIES_NAMES = (
    "recall",
    "coverage",
    "degraded_fraction",
    "chunks_skipped",
    "elapsed_ms",
)


def sweep(
    data: ExperimentData,
    family: str = "SR",
    size_class: str = "MEDIUM",
    workload_name: str = "DQ",
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = DEFAULT_SEED,
    checkpoint_path: Optional[Union[str, os.PathLike]] = None,
) -> FigureResult:
    """Run the exact search under each fault rate; returns the curves,
    whose ``to_report()`` is the determinism-check artefact.

    ``checkpoint_path`` enables point-by-point resume: each completed
    rate is published atomically, and a rerun with the same arguments
    skips rates the checkpoint already holds (a point is one whole
    workload run, so this is the natural crash-recovery granule).
    """
    if not rates:
        raise ValueError("need at least one fault rate")
    identity, checkpoint, index, workload, truth_lists = data.sweep_inputs(
        "faultsim", family, size_class, workload_name, seed, checkpoint_path
    )
    searcher = ChunkSearcher(index, cost_model=data.scale.cost_model)

    def run_rate(rate: float) -> Dict[str, float]:
        plan = FaultPlan.balanced(rate, seed=seed)
        faults = FaultInjector.from_cost_model(plan, data.scale.cost_model)
        batch = searcher.search_batch(
            workload.queries,
            k=K,
            true_neighbor_ids=truth_lists,
            faults=faults,
        )
        recalls = [
            precision_at_k(result.neighbor_ids(), truth_ids)
            for result, truth_ids in zip(batch, truth_lists)
        ]
        stats = robustness_stats(batch.traces())
        return {
            "recall": sum(recalls) / len(recalls),
            "coverage": stats.mean_coverage,
            "degraded_fraction": stats.degraded_fraction,
            "chunks_skipped": stats.mean_chunks_skipped,
            "elapsed_ms": stats.mean_elapsed_s * 1000.0,
        }

    series: Dict[str, List[float]] = {name: [] for name in _SERIES_NAMES}
    for rate in rates:
        point = checkpoint.point(
            f"rate={float(rate):g}", lambda: run_rate(float(rate))
        )
        for name in _SERIES_NAMES:
            series[name].append(float(point[name]))  # type: ignore[index]

    x_values = [float(r) for r in rates]
    return FigureResult(
        experiment_id="faultsim",
        title=(
            f"Quality vs fault rate — {family}/{size_class}, "
            f"{workload_name} workload, seed {seed}"
        ),
        x_label="fault_rate",
        x_values=x_values,
        series=series,
        precision=4,
        meta={**identity, "fault_rates": x_values},
    )
