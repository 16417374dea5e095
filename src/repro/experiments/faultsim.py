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
from .checkpoint import SweepCheckpoint
from .data import ExperimentData
from .results import FigureResult

__all__ = ["run", "sweep", "report", "DEFAULT_RATES", "DEFAULT_SEED"]

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
    """Run the exact search under each fault rate; returns the curves.

    ``checkpoint_path`` enables point-by-point resume: each completed
    rate is published atomically, and a rerun with the same arguments
    skips rates the checkpoint already holds (a point is one whole
    workload run, so this is the natural crash-recovery granule).
    """
    if not rates:
        raise ValueError("need at least one fault rate")
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = SweepCheckpoint(
            checkpoint_path,
            meta={
                "experiment": "faultsim",
                "scale": data.scale.name,
                "family": family,
                "size_class": size_class,
                "workload": workload_name,
                "seed": int(seed),
                "k": int(data.scale.k),
                "n_queries": len(data.workloads[workload_name]),
            },
        )
    built = data.built(family, size_class)
    workload = data.workloads[workload_name]
    truth = data.ground_truth(size_class, workload_name)
    truth_lists: List[Optional[Sequence[int]]] = [
        truth.get(i) for i in range(len(workload))
    ]
    searcher = ChunkSearcher(built.index, cost_model=data.scale.cost_model)

    series: Dict[str, List[float]] = {name: [] for name in _SERIES_NAMES}
    for rate in rates:
        key = f"rate={float(rate):g}"
        point = checkpoint.get(key) if checkpoint is not None else None
        if point is None:
            plan = FaultPlan.balanced(float(rate), seed=seed)
            faults = FaultInjector.from_cost_model(plan, data.scale.cost_model)
            batch = searcher.search_batch(
                workload.queries,
                k=data.scale.k,
                true_neighbor_ids=truth_lists,
                faults=faults,
            )
            recalls = [
                precision_at_k(result.neighbor_ids(), truth.get(i))
                for i, result in enumerate(batch)
            ]
            stats = robustness_stats(batch.traces())
            point = {
                "recall": sum(recalls) / len(recalls),
                "coverage": stats.mean_coverage,
                "degraded_fraction": stats.degraded_fraction,
                "chunks_skipped": stats.mean_chunks_skipped,
                "elapsed_ms": stats.mean_elapsed_s * 1000.0,
            }
            if checkpoint is not None:
                checkpoint.put(key, point)
                point = checkpoint.get(key)  # the JSON round-tripped value
        for name in _SERIES_NAMES:
            series[name].append(float(point[name]))  # type: ignore[index,call-overload]

    return FigureResult(
        experiment_id="faultsim",
        title=(
            f"Quality vs fault rate — {family}/{size_class}, "
            f"{workload_name} workload, seed {seed}"
        ),
        x_label="fault_rate",
        x_values=[float(r) for r in rates],
        series=series,
        precision=4,
    )


def run(data: ExperimentData) -> FigureResult:
    """Default sweep (``repro experiment faultsim``)."""
    return sweep(data)


def report(
    data: ExperimentData,
    family: str = "SR",
    size_class: str = "MEDIUM",
    workload_name: str = "DQ",
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = DEFAULT_SEED,
    figure: Optional[FigureResult] = None,
    checkpoint_path: Optional[Union[str, os.PathLike]] = None,
) -> Dict[str, object]:
    """The sweep as a JSON-ready dict (the determinism-check artefact).

    Pass ``figure`` to wrap an already-computed :func:`sweep` result
    (with matching arguments) instead of re-running the sweep.
    """
    if figure is None:
        figure = sweep(
            data, family, size_class, workload_name, rates, seed,
            checkpoint_path=checkpoint_path,
        )
    return {
        "experiment": "faultsim",
        "scale": data.scale.name,
        "family": family,
        "size_class": size_class,
        "workload": workload_name,
        "seed": int(seed),
        "k": int(data.scale.k),
        "n_queries": len(data.workloads[workload_name]),
        "fault_rates": figure.x_values,
        "series": figure.series,
    }
