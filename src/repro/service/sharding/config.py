"""Configuration and per-request records of the sharded service.

Mirrors :mod:`repro.service.request` one level up: a
:class:`ShardServiceConfig` freezes every tunable of the scatter-gather
coordinator, so a sharded run is a pure function of ``(index, placement,
config, shard fault plan)``; a :class:`ShardRequestRecord` captures what
happened to one query, including the honest ``coverage_fraction`` that
quantifies how much of the index actually answered.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

from ...core.neighbors import Neighbor
from ..request import validate_traffic

__all__ = [
    "ShardServiceConfig",
    "ShardRequestRecord",
    "SHED_IN_FLIGHT",
]

#: Shed reason of the coordinator's admission bound: too many queries
#: already in flight across the cluster.
SHED_IN_FLIGHT = "in-flight-limit"


@dataclasses.dataclass(frozen=True)
class ShardServiceConfig:
    """Tunables of the sharded scatter-gather service.

    Attributes
    ----------
    workers_per_shard:
        Simulated searcher workers on each shard node.
    deadline_s:
        Relative deadline each query carries; at its expiry the
        coordinator finalises with whatever sub-results have arrived.
    arrival_rate_qps, seed:
        Open-loop Poisson arrival stream (same substrate as the
        single-node service).
    k:
        Neighbors per query.
    hedge_delay_s:
        Seconds after dispatching a sub-request before a hedged
        duplicate is sent to the next replica (0 disables hedging).
        First answer wins; the loser's remaining worker occupancy is
        reclaimed.

    The admission bound and the quorum are the coordinator's constants
    :data:`~repro.service.sharding.coordinator.MAX_IN_FLIGHT` and
    :data:`~repro.service.sharding.coordinator.QUORUM_COVERAGE`; the
    per-shard circuit breakers (one region per shard) reuse the
    single-node :class:`~repro.service.breaker.RegionBreaker` and its
    constants.
    """

    workers_per_shard: int = 1
    deadline_s: float = 0.5
    arrival_rate_qps: float = 50.0
    seed: int = 0
    k: int = 10
    hedge_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.workers_per_shard < 1:
            raise ValueError("need at least one worker per shard")
        validate_traffic(self.deadline_s, self.arrival_rate_qps, self.k)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.hedge_delay_s >= 0.0:
            raise ValueError("hedge delay cannot be negative (0 disables)")


@dataclasses.dataclass(frozen=True)
class ShardRequestRecord:
    """Everything the coordinator knows about one finished query.

    ``neighbors`` is the merged top-k (empty for shed queries) — kept on
    the record so equivalence against the single-node searcher can be
    asserted result by result; reports aggregate without it.
    ``coverage_fraction`` is the fraction of the index's descriptors
    that contributed to the answer: 1.0 when every partition answered in
    full, honestly less when shards were lost or sub-scans trimmed.
    """

    index: int
    outcome: str
    stop_reason: str
    arrival_s: float
    # Everything below defaults to "no scatter ran" — a shed query.
    finish_s: float = math.nan
    latency_s: float = math.nan
    coverage_fraction: float = 0.0
    neighbors: Tuple[Neighbor, ...] = ()
    n_partitions: int = 0
    n_lost_partitions: int = 0
    n_failovers: int = 0
    n_hedges: int = 0
    n_hedge_wins: int = 0
    n_breaker_skips: int = 0
    recall: float = math.nan

    @property
    def served(self) -> bool:
        """True when a scatter ran (every outcome except ``shed``)."""
        return not math.isnan(self.finish_s)
