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
from .config import K
from .data import ExperimentData
from .results import GridResult
from .servesim import (
    BREAKER_COLUMNS,
    DEADLINE_FACTOR,
    DEFAULT_SEED,
    SLO_COLUMNS,
    mean_exact_completion_s,
    slo_cell,
)

__all__ = [
    "sweep",
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
    *SLO_COLUMNS,
    "mean_coverage",
    "failovers",
    "hedges",
    "hedge_wins",
    "lost_partitions",
    *BREAKER_COLUMNS,
)


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
) -> GridResult:
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
    identity, checkpoint, index, workload, truth_lists = data.sweep_inputs(
        "shardsim", family, size_class, workload_name, seed, checkpoint_path,
        n_replicas=int(n_replicas),
        workers_per_shard=int(workers_per_shard),
        load_factor=float(load_factor),
        hedge_factor=float(hedge_factor),
    )

    mean_service_s = mean_exact_completion_s(
        ChunkSearcher(index, cost_model=data.scale.cost_model), workload, checkpoint
    )
    arrival_rate_qps = float(load_factor) / mean_service_s
    deadline_s = DEADLINE_FACTOR * mean_service_s
    costs = estimate_chunk_costs(index, data.scale.cost_model)

    def run_cell(
        placement: str, n_shards: int, fault_rate: float
    ) -> Dict[str, object]:
        plan = plan_placement(
            costs,
            n_shards=n_shards,
            n_replicas=min(int(n_replicas), n_shards),
            strategy=placement,
            seed=seed,
        )
        config = ShardServiceConfig(
            workers_per_shard=workers_per_shard,
            deadline_s=deadline_s,
            arrival_rate_qps=arrival_rate_qps,
            seed=seed,
            k=K,
            hedge_delay_s=(
                hedge_factor * mean_service_s / float(n_shards)
                if hedge_factor > 0.0
                else 0.0
            ),
        )
        faults = None
        if fault_rate > 0.0:
            # Horizon ~ the open-loop span plus slack, so outage windows
            # can land anywhere in the run.
            faults = ShardFaultPlan.balanced(
                fault_rate,
                seed=seed,
                horizon_s=len(workload) / arrival_rate_qps + deadline_s,
            )
        with ShardedQueryService(
            index,
            plan,
            config,
            cost_model=data.scale.cost_model,
            faults=faults,
            true_neighbor_ids=truth_lists,
        ) as service:
            result = service.run(workload.queries)
        return {
            "placement": placement,
            "n_shards": n_shards,
            "fault_rate": fault_rate,
            "imbalance": plan.imbalance,
            "mean_coverage": result.mean_coverage,
            "failovers": result.n_failovers,
            "hedges": result.n_hedges,
            "hedge_wins": result.n_hedge_wins,
            "lost_partitions": result.n_lost_partitions,
            **slo_cell(result, result.mean_utilization),
        }

    rows: List[Dict[str, object]] = []
    for placement in placements:
        for n_shards in shard_counts:
            for fault_rate in fault_rates:
                cell = checkpoint.point(
                    f"placement={placement}/shards={int(n_shards)}"
                    f"/fault={float(fault_rate):g}",
                    lambda: run_cell(
                        placement, int(n_shards), float(fault_rate)
                    ),
                )
                rows.append(dict(cell))  # type: ignore[call-overload]

    return GridResult(
        experiment_id="shardsim",
        title=(
            f"Sharded serving vs shard count and fault rate — "
            f"{family}/{size_class}, {workload_name} workload, "
            f"load {load_factor:g}x, R={n_replicas}, seed {seed}"
        ),
        meta={
            **identity,
            "mean_service_s": mean_service_s,
            "arrival_rate_qps": arrival_rate_qps,
            "deadline_s": deadline_s,
            "placements": [str(placement) for placement in placements],
            "shard_counts": [int(count) for count in shard_counts],
            "fault_rates": [float(rate) for rate in fault_rates],
        },
        rows=rows,
        columns={
            "placement": "placement",
            "shards": "n_shards",
            "fault_rate": "fault_rate",
            **{column: column for column in _COLUMNS},
        },
        footer=(
            "calibration: mean single-node exact completion "
            f"{mean_service_s * 1000.0:.2f} ms, "
            f"offered load {float(load_factor):g}x "
            f"({arrival_rate_qps:.2f} qps), "
            f"deadline {deadline_s * 1000.0:.2f} ms"
        ),
    )
