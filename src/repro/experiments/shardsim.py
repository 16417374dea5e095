"""Sharded-serving sweep: tail latency vs shard count vs fault rate.

The service sweep (:mod:`~repro.experiments.servesim`) shows one node
trading quality for tail latency; this driver shows a *cluster* buying
the tail down with parallelism — and paying for faults with honest
coverage instead of errors.  The grid crosses placement strategy x
shard count x fault rate at a fixed offered load expressed in multiples
of a **single node's** calibrated capacity (``1 / T`` for the measured
mean exact completion time ``T``), so "load 8" means eight times what
one worker could sustain and a cluster of ``n`` single-worker shards
saturates at load ``n``.

Per cell the sharded coordinator runs the whole open-loop workload and
reports latency percentiles, outcome fractions, the mean coverage
fraction, and the robustness counters (failovers, hedges, breaker
transitions).  Placement skew is visible through the plan's imbalance
column — on skewed chunkings (the BAG family) the cost-aware greedy
placement should beat round-robin's max-loaded shard, and with it the
scatter-gather p99.

Every run is a pure function of ``(scale, grid, seed)``; two sweeps with
the same arguments emit byte-identical JSON reports (the CI smoke job
``cmp``'s them, as for the fault and service sweeps).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.search import ChunkSearcher
from ..faults.shard_plan import ShardFaultPlan
from ..service.sharding import (
    PLACEMENT_STRATEGIES,
    ShardedQueryService,
    ShardServiceConfig,
    estimate_chunk_costs,
    plan_placement,
)
from .checkpoint import SweepCheckpoint
from .data import ExperimentData
from .report import format_table
from .servesim import DEADLINE_FACTOR, DEFAULT_SEED

__all__ = [
    "run",
    "sweep",
    "ShardsimResult",
    "DEFAULT_PLACEMENTS",
    "DEFAULT_SHARD_COUNTS",
    "DEFAULT_FAULT_RATES",
    "DEFAULT_LOAD_FACTOR",
    "HEDGE_FACTOR",
]

#: Placement strategies compared per cell: the cost-aware bin-pack vs
#: the cost-blind baseline the acceptance criterion measures against.
DEFAULT_PLACEMENTS: Tuple[str, ...] = ("greedy", "round_robin")

#: Shard-count axis; single-worker shards, so cluster capacity scales
#: with it and the default 8x load crosses saturation mid-axis.
DEFAULT_SHARD_COUNTS: Tuple[int, ...] = (4, 8, 16)

#: Fault rates crossed with the shard axis (0 isolates pure load).
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.1)

#: Offered load in multiples of a single node's exact-search capacity.
DEFAULT_LOAD_FACTOR = 8.0

#: Hedge delay as a multiple of the expected per-shard sub-request time
#: (``T / n_shards``): late enough to spare the median, early enough to
#: matter for stragglers.
HEDGE_FACTOR = 3.0

#: The per-cell metrics, in report order.
_COLUMNS = (
    "imbalance",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "shed_fraction",
    "deadline_fraction",
    "degraded_fraction",
    "ok_fraction",
    "mean_recall",
    "mean_coverage",
    "failovers",
    "hedges",
    "hedge_wins",
    "lost_partitions",
    "breaker_opens",
    "breaker_half_opens",
    "breaker_closes",
    "utilization",
)


@dataclasses.dataclass
class ShardsimResult:
    """The grid of sharded runs, as data.

    ``rows[i]`` holds one ``(placement, n_shards, fault_rate)`` cell: the
    cell coordinates plus the :data:`_COLUMNS` metrics.  ``meta`` pins
    the shared calibration (mean single-node service time, offered load,
    deadline) so a report is self-describing.
    """

    experiment_id: str
    title: str
    meta: Dict[str, object]
    rows: List[Dict[str, object]]

    def render(self) -> str:
        headers = ["placement", "shards", "fault_rate"] + list(_COLUMNS)
        cells = [
            [row["placement"], row["n_shards"], row["fault_rate"]]
            + [row[column] for column in _COLUMNS]
            for row in self.rows
        ]
        calibration = (
            "calibration: mean single-node exact completion "
            f"{float(self.meta['mean_service_s']) * 1000.0:.2f} ms, "
            f"offered load {float(self.meta['load_factor']):g}x "
            f"({float(self.meta['arrival_rate_qps']):.2f} qps), "
            f"deadline {float(self.meta['deadline_s']) * 1000.0:.2f} ms"
        )
        table = format_table(
            headers,
            cells,
            title=f"[{self.experiment_id}] {self.title}",
            precision=3,
        )
        return f"{table}\n{calibration}"

    def to_report(self) -> Dict[str, object]:
        """Deterministic JSON-ready dict (the CI smoke artefact)."""
        return {
            "experiment": self.experiment_id,
            "meta": self.meta,
            "rows": self.rows,
        }


def sweep(
    data: ExperimentData,
    family: str = "BAG",
    size_class: str = "SMALL",
    workload_name: str = "DQ",
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    load_factor: float = DEFAULT_LOAD_FACTOR,
    n_replicas: int = 2,
    workers_per_shard: int = 1,
    hedge_factor: float = HEDGE_FACTOR,
    seed: int = DEFAULT_SEED,
    checkpoint_path: Optional[Union[str, os.PathLike]] = None,
) -> ShardsimResult:
    """Run the sharded grid; one cell per ``(placement, shards, fault)``.

    The BAG family is the default on purpose: its chunk costs are
    skewed, which is precisely where cost-aware placement earns its
    keep.  ``hedge_factor <= 0`` disables hedging across the sweep.
    ``checkpoint_path`` enables point-by-point resume exactly as in the
    fault and service sweeps.
    """
    if not placements or not shard_counts or not fault_rates:
        raise ValueError(
            "need at least one placement, shard count and fault rate"
        )
    for placement in placements:
        if placement not in PLACEMENT_STRATEGIES:
            raise ValueError(
                f"unknown placement {placement!r}; "
                f"choose from {PLACEMENT_STRATEGIES}"
            )
    if any(count < 1 for count in shard_counts):
        raise ValueError("shard counts must be positive")
    if not load_factor > 0.0:
        raise ValueError("load factor must be positive")
    if n_replicas < 1:
        raise ValueError("replication factor must be positive")
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = SweepCheckpoint(
            checkpoint_path,
            meta={
                "experiment": "shardsim",
                "scale": data.scale.name,
                "family": family,
                "size_class": size_class,
                "workload": workload_name,
                "seed": int(seed),
                "k": int(data.scale.k),
                "n_replicas": int(n_replicas),
                "workers_per_shard": int(workers_per_shard),
                "load_factor": float(load_factor),
                "hedge_factor": float(hedge_factor),
                "n_queries": len(data.workloads[workload_name]),
            },
        )
    built = data.built(family, size_class)
    workload = data.workloads[workload_name]
    truth = data.ground_truth(size_class, workload_name)
    truth_lists: List[Optional[Sequence[int]]] = [
        truth.get(i) for i in range(len(workload))
    ]

    baseline = checkpoint.get("baseline") if checkpoint is not None else None
    if baseline is None:
        searcher = ChunkSearcher(
            built.index, cost_model=data.scale.cost_model
        )
        baseline = searcher.search_batch(
            workload.queries, k=data.scale.k
        ).mean_elapsed_s
        if checkpoint is not None:
            checkpoint.put("baseline", baseline)
            baseline = checkpoint.get("baseline")
    mean_service_s = float(baseline)  # type: ignore[arg-type]
    arrival_rate_qps = float(load_factor) / mean_service_s
    deadline_s = DEADLINE_FACTOR * mean_service_s
    costs = estimate_chunk_costs(built.index, data.scale.cost_model)

    rows: List[Dict[str, object]] = []
    for placement in placements:
        for n_shards in shard_counts:
            for fault_rate in fault_rates:
                key = (
                    f"placement={placement}/shards={int(n_shards)}"
                    f"/fault={float(fault_rate):g}"
                )
                cell = checkpoint.get(key) if checkpoint is not None else None
                if cell is None:
                    plan = plan_placement(
                        costs,
                        n_shards=int(n_shards),
                        n_replicas=min(int(n_replicas), int(n_shards)),
                        strategy=placement,
                        seed=seed,
                    )
                    hedge_delay_s = (
                        hedge_factor * mean_service_s / float(n_shards)
                        if hedge_factor > 0.0
                        else 0.0
                    )
                    config = ShardServiceConfig(
                        workers_per_shard=workers_per_shard,
                        deadline_s=deadline_s,
                        arrival_rate_qps=arrival_rate_qps,
                        seed=seed,
                        k=data.scale.k,
                        hedge_delay_s=hedge_delay_s,
                    )
                    faults = None
                    if fault_rate > 0.0:
                        # Horizon ~ the open-loop span plus slack, so
                        # outage windows can land anywhere in the run.
                        horizon_s = (
                            len(workload) / arrival_rate_qps + deadline_s
                        )
                        faults = ShardFaultPlan.balanced(
                            float(fault_rate), seed=seed, horizon_s=horizon_s
                        )
                    service = ShardedQueryService(
                        built.index,
                        plan,
                        config,
                        cost_model=data.scale.cost_model,
                        faults=faults,
                        true_neighbor_ids=truth_lists,
                    )
                    result = service.run(workload.queries)
                    stats = result.stats
                    cell = {
                        "placement": placement,
                        "n_shards": int(n_shards),
                        "fault_rate": float(fault_rate),
                        "imbalance": plan.imbalance,
                        "p50_ms": stats.p50_s * 1000.0,
                        "p95_ms": stats.p95_s * 1000.0,
                        "p99_ms": stats.p99_s * 1000.0,
                        "shed_fraction": stats.shed_fraction,
                        "deadline_fraction": stats.deadline_fraction,
                        "degraded_fraction": stats.degraded_fraction,
                        "ok_fraction": stats.ok_fraction,
                        "mean_recall": stats.mean_recall,
                        "mean_coverage": result.mean_coverage,
                        "failovers": result.n_failovers,
                        "hedges": result.n_hedges,
                        "hedge_wins": result.n_hedge_wins,
                        "lost_partitions": result.n_lost_partitions,
                        "breaker_opens": result.breaker_opens,
                        "breaker_half_opens": (
                            result.breaker_transitions["half_opened"]
                        ),
                        "breaker_closes": result.breaker_transitions["closed"],
                        "utilization": result.mean_utilization,
                    }
                    if checkpoint is not None:
                        checkpoint.put(key, cell)
                        cell = checkpoint.get(key)
                rows.append(dict(cell))  # type: ignore[call-overload]

    return ShardsimResult(
        experiment_id="shardsim",
        title=(
            f"Sharded serving vs shard count and fault rate — "
            f"{family}/{size_class}, {workload_name} workload, "
            f"load {load_factor:g}x, R={n_replicas}, seed {seed}"
        ),
        meta={
            "scale": data.scale.name,
            "family": family,
            "size_class": size_class,
            "workload": workload_name,
            "seed": int(seed),
            "k": int(data.scale.k),
            "n_replicas": int(n_replicas),
            "workers_per_shard": int(workers_per_shard),
            "n_queries": len(workload),
            "mean_service_s": mean_service_s,
            "load_factor": float(load_factor),
            "arrival_rate_qps": arrival_rate_qps,
            "deadline_s": deadline_s,
            "hedge_factor": float(hedge_factor),
            "placements": [str(placement) for placement in placements],
            "shard_counts": [int(count) for count in shard_counts],
            "fault_rates": [float(rate) for rate in fault_rates],
        },
        rows=rows,
    )


def run(data: ExperimentData) -> ShardsimResult:
    """Default grid (``repro experiment shardsim``)."""
    return sweep(data)
