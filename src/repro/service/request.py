"""Requests, per-request records, and the service configuration.

A :class:`QueryRequest` is one workload query wrapped with traffic
metadata: when it arrived and by when it must be answered.  The service
never fails a request outright — the paper's quality/time knob means a
late request can always be answered *worse* instead of *not at all* —
so every request ends in exactly one of the four
:data:`~repro.core.metrics.REQUEST_OUTCOMES`, captured in a
:class:`RequestRecord`.

:class:`ServiceConfig` bundles every tunable of the simulated service;
it is frozen so a run is a pure function of ``(index, workload, config,
fault plan)``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..core.metrics import (
    OUTCOME_DEADLINE,
    OUTCOME_DEGRADED,
    OUTCOME_OK,
    SloStats,
    precision_at_k,
    slo_stats,
)
from ..core.neighbors import Neighbor
from ..workloads.arrivals import poisson_arrival_times

if TYPE_CHECKING:
    from .sharding.config import ShardRequestRecord

__all__ = [
    "QueryRequest",
    "RequestRecord",
    "ServiceConfig",
    "open_loop_requests",
    "request_outcome",
    "request_quality",
    "run_summary",
    "validate_traffic",
]

_Record = TypeVar("_Record", "RequestRecord", "ShardRequestRecord")


@dataclasses.dataclass(frozen=True)
class QueryRequest:
    """One admitted unit of work.

    Attributes
    ----------
    index:
        Stable workload position of the query — also the fault-plan key,
        so the same request sees the same faults regardless of when the
        service happens to run it.
    query:
        The descriptor vector, shape ``(d,)`` float64.
    arrival_s:
        Simulated arrival time.
    deadline_s:
        Absolute simulated deadline (``arrival_s + relative deadline``).
    truth_ids:
        The query's true neighbor ids, when ground truth was supplied.
    """

    index: int
    query: np.ndarray
    arrival_s: float
    deadline_s: float
    truth_ids: Optional[Sequence[int]] = None

    def remaining_s(self, now: float) -> float:
        """Deadline budget left at ``now`` (negative once expired)."""
        return self.deadline_s - now


def open_loop_requests(
    queries: np.ndarray,
    truth: Optional[Sequence[Optional[Sequence[int]]]],
    arrival_rate_qps: float,
    seed: int,
    deadline_s: float,
) -> List[QueryRequest]:
    """The open-loop request stream both services run on.

    ``queries`` is the ``(n, d)`` workload matrix; request ``i`` carries
    query ``i``, arrives at the seeded Poisson schedule's ``times_s[i]``
    and must be answered ``deadline_s`` later.  ``truth``, when given,
    must hold one ground-truth entry per query (its ``truth_ids``).
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[0] == 0:
        raise ValueError(
            f"queries must be a non-empty (n, d) matrix, got {queries.shape}"
        )
    if truth is not None and len(truth) != queries.shape[0]:
        raise ValueError(
            f"got {len(truth)} ground-truth lists "
            f"for {queries.shape[0]} queries"
        )
    schedule = poisson_arrival_times(queries.shape[0], arrival_rate_qps, seed)
    return [
        QueryRequest(
            index=i,
            query=queries[i],
            arrival_s=arrival,
            deadline_s=arrival + deadline_s,
            truth_ids=None if truth is None else truth[i],
        )
        for i, arrival in enumerate(schedule.times_s.tolist())
    ]


def request_outcome(deadline_hit: bool, exact: bool) -> str:
    """A served request's outcome in both services: the deadline firing
    dominates (it is the SLO event), then provable exactness, then
    everything quality-reduced (budget trims, skipped chunks, lost or
    trimmed partitions)."""
    if deadline_hit:
        return OUTCOME_DEADLINE
    return OUTCOME_OK if exact else OUTCOME_DEGRADED


def request_quality(
    neighbors: Sequence[Neighbor], truth_ids: Optional[Sequence[int]],
    exact: bool, scanned: float, total: int,
) -> float:
    """One served request's quality in both services: precision@k when
    ground truth is known, else 1.0 for a provably exact answer, else the
    fraction of the index's ``total`` descriptors ``scanned`` (NaN for an
    index that holds none)."""
    if truth_ids is not None:
        return precision_at_k([n.descriptor_id for n in neighbors], truth_ids)
    if exact:
        return 1.0
    if total == 0:
        return math.nan
    return min(1.0, scanned / total)


def run_summary(records: Sequence[Optional[_Record]]) -> Tuple[List[_Record], SloStats]:
    """A run's records, one per request in request order, and their
    :class:`~repro.core.metrics.SloStats`."""
    done = [record for record in records if record is not None]
    assert len(done) == len(records), "every request must be recorded"
    return done, slo_stats(
        [record.outcome for record in done],
        [record.latency_s for record in done],
        [record.recall for record in done],
    )


def validate_traffic(deadline_s: float, arrival_rate_qps: float, k: int) -> None:
    """The checks :class:`ServiceConfig` and the sharded service's config
    share: deadline, arrival stream and ``k``."""
    if not deadline_s > 0.0:
        raise ValueError("deadline must be positive")
    if not arrival_rate_qps > 0.0:
        raise ValueError("arrival rate must be positive")
    if k < 1:
        raise ValueError("k must be positive")


@dataclasses.dataclass(frozen=True)
class RequestRecord:
    """Everything the service knows about one finished request.

    ``outcome`` is one of :data:`~repro.core.metrics.REQUEST_OUTCOMES`.
    Shed requests carry NaN timing fields (nothing ran) and a
    ``stop_reason`` naming the shed cause (``"queue-full"`` or
    ``"predicted-late"``).  ``recall`` is the per-request quality proxy:
    the true-neighbor fraction when ground truth was supplied, otherwise
    the scanned-coverage proxy; NaN for shed requests.
    """

    index: int
    outcome: str
    stop_reason: str
    arrival_s: float
    # Everything below defaults to "nothing ran" — a shed request.
    start_s: float = math.nan
    finish_s: float = math.nan
    latency_s: float = math.nan
    wait_s: float = math.nan
    chunk_budget: int = 0
    chunks_read: int = 0
    chunks_skipped: int = 0
    breaker_skips: int = 0
    recall: float = math.nan
    worker: int = -1


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the simulated query service.

    Attributes
    ----------
    n_workers:
        Parallel searcher workers (simulated; results are engine- and
        thread-count independent).
    deadline_s:
        Relative deadline each request carries.
    target_p99_s:
        Latency the adaptive controller steers p99 towards; must not
        exceed ``deadline_s`` (the deadline is the hard envelope, the
        target is where the controller tries to sit below it).  The
        controller's cadence and gains are constants of
        :mod:`repro.service.controller`.
    arrival_rate_qps:
        Open-loop Poisson arrival rate.
    seed:
        Root seed of the arrival process.
    k:
        Neighbors per query.
    initial_service_estimate_s:
        Seed of the admission controller's service-time estimate (a calibration baseline such as the mean
        fault-free completion time); 0.0 falls back to ``deadline_s``,
        the pessimistic choice that sheds aggressively until real
        observations arrive.
    shed_slack:
        Admission sheds when the *estimated* completion time exceeds
        ``arrival + shed_slack * deadline_s``; 1.0 sheds exactly at the
        predicted deadline miss, larger values shed later (more
        optimistic admission).

    The admission queue's bound is
    :data:`~repro.service.admission.QUEUE_CAPACITY`; the circuit breakers'
    region size is :data:`~repro.service.simulator.REGION_SIZE` and their
    state machine the constants of :mod:`repro.service.breaker`.
    """

    n_workers: int = 4
    deadline_s: float = 0.5
    target_p99_s: float = 0.45
    arrival_rate_qps: float = 50.0
    seed: int = 0
    k: int = 10
    # -- admission control
    shed_slack: float = 1.0
    initial_service_estimate_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        validate_traffic(self.deadline_s, self.arrival_rate_qps, self.k)
        if not 0.0 < self.target_p99_s <= self.deadline_s:
            raise ValueError(
                "target p99 must be positive and not exceed the deadline "
                f"(got target {self.target_p99_s}, deadline {self.deadline_s})"
            )
        if not self.shed_slack > 0.0:
            raise ValueError("shed slack must be positive")
        if not self.initial_service_estimate_s >= 0.0:
            raise ValueError(
                "initial service estimate cannot be negative (0 = deadline)"
            )
