"""Sharded serving: replicated placement plus hedged scatter-gather.

The single-node :class:`~repro.service.simulator.QueryService` bounds
tail latency by degrading quality; this package bounds it by *dividing
work*: a placement optimizer partitions the index's chunks across shard
nodes with replication, and a scatter-gather coordinator fans each query
out under its propagated deadline, failing over across replicas, hedging
stragglers, and merging per-shard top-k results exactly.  With no faults
and hedging disabled the merged answer is bit-identical to the
single-node searcher's; under faults it degrades monotonically with an
honest per-query coverage fraction.

* :mod:`~repro.service.sharding.placement` — chunk cost estimation,
  greedy/round-robin/random placement, replica rings, partition
  sub-index construction;
* :mod:`~repro.service.sharding.coordinator` — the deterministic
  scatter-gather event loop over per-shard worker pools, with breakers,
  failover and hedging.
"""

from .config import (
    SHED_IN_FLIGHT,
    ShardRequestRecord,
    ShardServiceConfig,
)
from .coordinator import ShardedQueryService, ShardRunResult
from .placement import (
    PLACEMENT_GREEDY,
    PLACEMENT_RANDOM,
    PLACEMENT_ROUND_ROBIN,
    PLACEMENT_STRATEGIES,
    Partition,
    PlacementPlan,
    build_partition_index,
    estimate_chunk_costs,
    plan_placement,
)

__all__ = [
    "PLACEMENT_GREEDY",
    "PLACEMENT_ROUND_ROBIN",
    "PLACEMENT_RANDOM",
    "PLACEMENT_STRATEGIES",
    "Partition",
    "PlacementPlan",
    "estimate_chunk_costs",
    "plan_placement",
    "build_partition_index",
    "ShardServiceConfig",
    "ShardRequestRecord",
    "SHED_IN_FLIGHT",
    "ShardedQueryService",
    "ShardRunResult",
]
