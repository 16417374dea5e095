"""Service simulation sweep: SLOs vs offered load vs fault rate.

The paper's quality/time trade-off is measured one query at a time; this
driver measures what the trade-off buys a *service*: a grid of
``(fault rate x offered load)`` runs of the resilient query service
(:class:`~repro.service.simulator.QueryService`), each reporting the
latency percentiles, shed/degraded/deadline fractions and mean recall
proxy of the full open-loop run.

Loads are expressed as multiples of the pool's calibrated capacity — the
measured mean fault-free completion time ``T`` gives a capacity of
``n_workers / T`` queries per second, so a load factor of 2.0 offers
twice what exact search could sustain — which keeps the sweep meaningful
at any experiment scale.  The relative deadline and the controller's p99
target are the same ``T`` scaled by fixed factors.

Every run is a pure function of ``(scale, grid, seed)``; two sweeps with
the same arguments emit byte-identical JSON reports (the CI smoke job
asserts this, mirroring the fault-injection smoke).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.search import ChunkSearcher
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..service import QueryService, ServiceConfig, ServiceRunResult, ShardRunResult
from ..simio.chunk_cache import LruChunkCache
from ..workloads.queries import Workload
from .checkpoint import SweepCheckpoint
from .config import K
from .data import ExperimentData
from .results import GridResult

__all__ = [
    "sweep",
    "mean_exact_completion_s",
    "DEFAULT_LOAD_FACTORS",
    "DEFAULT_FAULT_RATES",
    "DEFAULT_SEED",
    "DEADLINE_FACTOR",
    "TARGET_FACTOR",
    "SLO_COLUMNS",
    "BREAKER_COLUMNS",
    "slo_cell",
]

#: Offered load as multiples of the pool's calibrated exact-search
#: capacity: below saturation, at it, and far beyond it.
DEFAULT_LOAD_FACTORS: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)

#: Fault rates crossed with the load axis (0 isolates pure overload).
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.1)

#: Root seed (the paper's publication year, as in the fault sweep).
DEFAULT_SEED = 2005

#: Relative deadline as a multiple of the mean exact completion time.
DEADLINE_FACTOR = 4.0

#: Controller p99 target as a multiple of the mean exact completion time.
TARGET_FACTOR = 3.0

#: The cell metrics both service sweeps report (:func:`slo_cell`), in
#: table order: these, then the sweep's own, then :data:`BREAKER_COLUMNS`.
SLO_COLUMNS = (
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "shed_fraction",
    "deadline_fraction",
    "degraded_fraction",
    "ok_fraction",
    "mean_recall",
)
BREAKER_COLUMNS = (
    "breaker_opens",
    "breaker_half_opens",
    "breaker_closes",
    "utilization",
)

#: The per-cell metrics, in report order.
_COLUMNS = (*SLO_COLUMNS, "final_budget", *BREAKER_COLUMNS)


def slo_cell(
    result: Union[ServiceRunResult, ShardRunResult], utilization: float
) -> Dict[str, object]:
    """The :data:`SLO_COLUMNS` and :data:`BREAKER_COLUMNS` of one service
    run's cell."""
    stats = result.stats
    return {
        "p50_ms": stats.p50_s * 1000.0,
        "p95_ms": stats.p95_s * 1000.0,
        "p99_ms": stats.p99_s * 1000.0,
        "shed_fraction": stats.shed_fraction,
        "deadline_fraction": stats.deadline_fraction,
        "degraded_fraction": stats.degraded_fraction,
        "ok_fraction": stats.ok_fraction,
        "mean_recall": stats.mean_recall,
        "breaker_opens": result.breaker_opens,
        "breaker_half_opens": result.breaker_transitions["half_opened"],
        "breaker_closes": result.breaker_transitions["closed"],
        "utilization": utilization,
    }


def mean_exact_completion_s(
    searcher: ChunkSearcher, workload: Workload, checkpoint: SweepCheckpoint
) -> float:
    """Mean exact (fault-free) completion seconds over the workload, kept
    as the checkpoint's ``baseline`` point: the calibration ``T`` this
    sweep and the sharded one scale everything by."""
    return float(
        checkpoint.point(  # type: ignore[arg-type]
            "baseline",
            lambda: searcher.search_batch(workload.queries, k=K).mean_elapsed_s,
        )
    )


def sweep(
    data: ExperimentData,
    family: str = "SR",
    size_class: str = "SMALL",
    workload_name: str = "DQ",
    load_factors: Sequence[float] = DEFAULT_LOAD_FACTORS,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    seed: int = DEFAULT_SEED,
    n_workers: int = 4,
    checkpoint_path: Optional[Union[str, os.PathLike]] = None,
    cache_mb: Optional[float] = None,
) -> GridResult:
    """Run the service grid; one cell per ``(fault rate, load factor)``.

    ``checkpoint_path`` enables point-by-point resume exactly as in the
    fault sweep: each finished cell (and the calibration run) is
    published atomically and skipped on rerun.

    ``cache_mb`` enables the simulated cross-query chunk cache shared by
    the pool's workers: each cell (and the calibration run) gets a
    *fresh* cache of that capacity, so every cell stays a pure function
    of its own coordinates — no warm-up leaks across cells — and the
    report remains byte-identical across reruns.  Cells then additionally
    record the cache's hit rate.
    """
    if not load_factors or not fault_rates:
        raise ValueError("need at least one load factor and one fault rate")
    if any(not load > 0.0 for load in load_factors):
        raise ValueError("load factors must be positive")
    if cache_mb is not None and not cache_mb > 0.0:
        raise ValueError("cache size must be positive megabytes (or None)")
    identity, checkpoint, index, workload, truth_lists = data.sweep_inputs(
        "servesim", family, size_class, workload_name, seed, checkpoint_path,
        n_workers=int(n_workers),
        cache_mb=float(cache_mb) if cache_mb is not None else None,
    )

    def fresh_searcher() -> "Tuple[ChunkSearcher, Optional[LruChunkCache]]":
        """A searcher over the built index; with ``cache_mb`` set it gets
        its own chunk cache so each run's warm-up is self-contained."""
        if cache_mb is None:
            return (
                ChunkSearcher(index, cost_model=data.scale.cost_model), None
            )
        cache = LruChunkCache(
            capacity_bytes=int(float(cache_mb) * (1 << 20)), seed=int(seed)
        )
        cost_model = dataclasses.replace(
            data.scale.cost_model, chunk_cache=cache
        )
        return ChunkSearcher(index, cost_model=cost_model), cache

    searcher, _ = fresh_searcher()

    mean_service_s = mean_exact_completion_s(searcher, workload, checkpoint)
    capacity_qps = n_workers / mean_service_s
    deadline_s = DEADLINE_FACTOR * mean_service_s
    target_p99_s = TARGET_FACTOR * mean_service_s

    def run_cell(fault_rate: float, load: float) -> Dict[str, object]:
        config = ServiceConfig(
            n_workers=n_workers,
            deadline_s=deadline_s,
            target_p99_s=target_p99_s,
            arrival_rate_qps=load * capacity_qps,
            seed=seed,
            k=K,
            initial_service_estimate_s=mean_service_s,
            # Admit only what is predicted to finish within the
            # *target*, not the deadline — aligning the admission
            # horizon with the controller's goal.
            shed_slack=TARGET_FACTOR / DEADLINE_FACTOR,
        )
        faults = None
        if fault_rate > 0.0:
            plan = FaultPlan.balanced(fault_rate, seed=seed)
            faults = FaultInjector.from_cost_model(plan, data.scale.cost_model)
        # A fresh cache per cell: the cell's result must be a pure
        # function of its coordinates, not of which cells (or the
        # calibration run) happened to execute before it — that is
        # what keeps checkpoint resume byte-identical.
        cell_searcher, cell_cache = (
            (searcher, None) if cache_mb is None else fresh_searcher()
        )
        service = QueryService(
            cell_searcher, config, faults=faults,
            true_neighbor_ids=truth_lists,
        )
        result = service.run(workload.queries)
        cell: Dict[str, object] = {
            "fault_rate": fault_rate,
            "load_factor": load,
            "final_budget": result.final_budget,
            **slo_cell(result, result.utilization),
        }
        if cell_cache is not None:
            cell["cache_hit_rate"] = cell_cache.hit_rate
        return cell

    rows: List[Dict[str, object]] = []
    for fault_rate in fault_rates:
        for load in load_factors:
            cell = checkpoint.point(
                f"fault={float(fault_rate):g}/load={float(load):g}",
                lambda: run_cell(float(fault_rate), float(load)),
            )
            rows.append(dict(cell))  # type: ignore[call-overload]

    return GridResult(
        experiment_id="servesim",
        title=(
            f"Service SLOs vs load and fault rate — {family}/{size_class}, "
            f"{workload_name} workload, {n_workers} workers, seed {seed}"
        ),
        meta={
            **identity,
            "mean_service_s": mean_service_s,
            "capacity_qps": capacity_qps,
            "deadline_s": deadline_s,
            "target_p99_s": target_p99_s,
            "load_factors": [float(load) for load in load_factors],
            "fault_rates": [float(rate) for rate in fault_rates],
        },
        rows=rows,
        columns={
            "fault_rate": "fault_rate",
            "load": "load_factor",
            **{column: column for column in _COLUMNS},
        },
        footer=(
            "calibration: mean exact completion "
            f"{mean_service_s * 1000.0:.2f} ms, "
            f"capacity {capacity_qps:.2f} qps, "
            f"deadline {deadline_s * 1000.0:.2f} ms, "
            f"p99 target {target_p99_s * 1000.0:.2f} ms"
        ),
    )
