"""The sharded query service: scatter-gather with failover and hedging.

One coordinator fans each arriving query out to every partition of a
:class:`~repro.service.sharding.placement.PlacementPlan`, executes the
per-partition searches on one simulated
:class:`~repro.simio.queueing.WorkerPool` per shard under the query's
propagated deadline, and merges the per-shard top-k exactly.  The
robustness core:

* **Per-shard circuit breakers** — one
  :class:`~repro.service.breaker.RegionBreaker` region per shard; a
  shard that keeps failing is skipped at dispatch time (``breaker-open``
  failover) until its cooldown expires.
* **Replica failover** — a failed sub-request (injected error or
  outage) is retried on the partition's next replica; each holder is
  tried at most once, and a partition whose holders are all exhausted
  is honestly *lost*, not silently dropped.
* **Seeded hedged requests** — when a sub-request has not answered
  ``hedge_delay_s`` after dispatch, a duplicate is sent to the next
  replica; the first answer wins and the loser's unconsumed worker
  occupancy is reclaimed (first-wins cancellation).
* **Quorum-style partial results** — at the deadline the coordinator
  finalises with whatever arrived; every answer carries an honest
  ``coverage_fraction`` and a degraded stop reason when shards were
  lost or sub-scans trimmed.

Exact-merge argument (the bit-identical claim)
----------------------------------------------
``(distance, id)`` is a total order, so the exact top-k of any
descriptor set is unique.  Partitions tile the index; each partition
search is the same per-chunk kernel over the same float64 vectors, so
per-shard distances are bit-identical to the single node's, and the
k-way merge of per-partition exact top-k's equals the single-node exact
top-k — ids, distances and order.  The stop reason is reconstructed
exactly as well: an exact single-node scan ends ``"completed"`` iff the
index holds at least ``k`` descriptors (on the last chunk the remaining
lower bound is infinite, so a full neighbor set proves completion) and
``"exhausted"`` otherwise — equivalently, iff the merged result holds
``k`` neighbors.  Hence with no faults and hedging disabled the sharded
answer is indistinguishable from the single-node searcher's.

Event loop
----------
The same :class:`~repro.simio.queueing.EventQueue` as the single-node
service, with a third event kind between its two: sub-request
**completions**, then **timers** (hedge and deadline), then
**arrivals**.  Unlike the single node's late-binding FIFO, the
coordinator binds *early*: a sub-request is placed on its shard's worker
timeline the moment it is dispatched (it starts when that worker frees
up, FIFO per shard — Tavenard et al.'s variability argument applies per
shard, and the scatter-gather tail is the max over these queues), its
stop rule is fixed from the deadline remaining at that *estimated* start,
and load is shed by :data:`MAX_IN_FLIGHT`, not by queue length.

One search per sub-task
-----------------------
A hedge or failover re-runs the same ``(query, partition)`` scan under
a new deadline budget, and a budget can only cut a scan at an event
whose elapsed time reaches it.  When the first search's answer is one no
such cut could have ended earlier
(:meth:`~repro.core.search.SearchResult.holds_under_deadline`), the
later attempt reuses it instead of searching.  Its simulated duration
and answer are the ones a fresh search would produce, so records and
reports do not move; only host work is saved.

Everything runs on the simulated clock; a run is a pure function of
``(index, placement, config, shard fault plan)``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ...core.metrics import OUTCOME_SHED, SloStats
from ...core.neighbors import Neighbor, merge_neighbor_lists
from ...core.search import (
    STOP_COMPLETED,
    STOP_EXHAUSTED,
    ChunkSearcher,
    SearchResult,
)
from ...core.stop_rules import DeadlineBudget
from ...faults.shard_plan import (
    ERROR_DETECT_S,
    SHARD_OK,
    STRAGGLER_FACTOR,
    ShardFaultPlan,
    ShardSubFault,
)
from ...simio.calibration import PAPER_2005_COST_MODEL
from ...simio.pipeline import CostModel
from ...simio.queueing import (
    EVT_ARRIVAL,
    EVT_COMPLETION,
    EVT_TIMER,
    EventQueue,
    WorkerPool,
)
from ..breaker import BreakerBoard
from ..deadline import deadline_rule
from ..request import (
    QueryRequest,
    open_loop_requests,
    request_outcome,
    request_quality,
    run_summary,
)
from ...core.chunk_index import ChunkIndex
from .config import (
    SHED_IN_FLIGHT,
    ShardRequestRecord,
    ShardServiceConfig,
)
from .placement import Partition, PlacementPlan, build_partition_index

__all__ = [
    "ShardedQueryService",
    "ShardRunResult",
    "MAX_IN_FLIGHT",
    "QUORUM_COVERAGE",
]

#: Admission bound: a query arriving while this many are already in flight
#: is shed outright (the coordinator's analogue of the single-node bounded
#: queue).
MAX_IN_FLIGHT = 64

#: Minimum coverage fraction for a partial result to count as a quorum;
#: below it the query is still answered (never an error page) but its stop
#: reason says ``below-quorum``.
QUORUM_COVERAGE = 0.5


@dataclasses.dataclass
class _Attempt:
    """One dispatched copy of a sub-request, with the ``(worker, start,
    finish)`` its shard's pool assigned it; ``result`` stays ``None``
    for an attempt that fails (injected error or outage)."""

    shard_id: int
    worker: int
    start_s: float
    finish_s: float
    is_hedge: bool
    result: Optional[SearchResult] = None
    cancelled: bool = False


@dataclasses.dataclass
class _SubTask:
    """One query's work on one partition, tried on its replicas in order.
    ``searched`` is the first search any attempt ran, reused by later
    attempts it holds for; ``result`` is the answer that won."""

    partition: Partition
    #: Fault draws of every (holder position, attempt) pair, row-major;
    #: empty without a fault plan.
    draws: Sequence[ShardSubFault] = ()
    next_target: int = 0
    attempt_no: int = 0
    in_flight: Dict[int, _Attempt] = dataclasses.field(default_factory=dict)
    searched: Optional[SearchResult] = None
    result: Optional[SearchResult] = None
    lost: bool = False
    hedged: bool = False

    @property
    def resolved(self) -> bool:
        return self.result is not None or self.lost


@dataclasses.dataclass
class _QueryState:
    """Coordinator-side state of one admitted query."""

    request: QueryRequest
    subtasks: Dict[int, _SubTask]
    done: bool = False
    n_failovers: int = 0
    n_hedges: int = 0
    n_hedge_wins: int = 0
    n_breaker_skips: int = 0


@dataclasses.dataclass(frozen=True)
class _AttemptEvent:
    """Names one attempt: its completion (``EVT_COMPLETION``) or the
    hedge timer armed when it was dispatched (``EVT_TIMER``)."""

    query_index: int
    partition_id: int
    attempt_no: int


@dataclasses.dataclass(frozen=True)
class _DeadlineTimer:
    query_index: int


_Payload = Union[QueryRequest, _AttemptEvent, _DeadlineTimer]


@dataclasses.dataclass(frozen=True)
class ShardRunResult:
    """Everything one sharded-traffic run produced.

    ``records`` is ordered by request index.  ``stats`` aggregates via
    :func:`~repro.core.metrics.slo_stats`; ``mean_coverage`` averages
    the honest per-query coverage over served requests.  The breaker
    fields expose the per-shard state machines — counts of opens,
    half-opens and closes make failover behaviour observable in sweeps.
    """

    config: ShardServiceConfig
    placement: Dict[str, object]
    records: List[ShardRequestRecord]
    stats: SloStats
    mean_coverage: float
    n_failovers: int
    n_hedges: int
    n_hedge_wins: int
    n_breaker_skips: int
    n_lost_partitions: int
    reclaimed_s: float
    breaker_opens: int
    breaker_state_counts: Dict[str, int]
    breaker_transitions: Dict[str, int]
    shard_served: List[int]
    shard_failed: List[int]
    makespan_s: float
    mean_utilization: float


class ShardedQueryService:
    """Deterministic scatter-gather simulation over a placed index.

    Parameters
    ----------
    index:
        The single-node chunk index being sharded; partitions tile its
        chunks per the placement plan.
    plan:
        A :class:`~repro.service.sharding.placement.PlacementPlan`
        covering exactly this index's chunks.
    config:
        Coordinator tunables; see :class:`ShardServiceConfig`.
    cost_model:
        Per-shard search cost model (the paper's calibrated hardware by
        default).  Shared caches are not supported here — each shard is
        its own node, so cross-shard cache coupling would be fiction.
    faults:
        Optional :class:`~repro.faults.shard_plan.ShardFaultPlan`.
    true_neighbor_ids:
        Optional per-query ground truth for true recall; otherwise the
        coverage fraction serves as the quality proxy.
    """

    def __init__(
        self,
        index: ChunkIndex,
        plan: PlacementPlan,
        config: ShardServiceConfig,
        cost_model: CostModel = PAPER_2005_COST_MODEL,
        faults: Optional[ShardFaultPlan] = None,
        true_neighbor_ids: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ):
        if cost_model.chunk_cache is not None:
            raise ValueError(
                "sharded serving does not support shared caches: each "
                "shard is a separate node with its own memory"
            )
        placed = sorted(
            chunk_id
            for partition in plan.partitions
            for chunk_id in partition.chunk_ids
        )
        if placed != list(range(index.n_chunks)):
            raise ValueError(
                f"placement covers {len(placed)} chunks, "
                f"index has {index.n_chunks} (must tile exactly)"
            )
        self.index = index
        self.plan = plan
        self.config = config
        self.faults = faults
        self.truth = true_neighbor_ids
        counts = index.descriptor_counts()
        self._total_descriptors = int(np.asarray(counts).sum())
        self._partition_descriptors: Dict[int, int] = {
            partition.partition_id: int(
                sum(int(counts[c]) for c in partition.chunk_ids)
            )
            for partition in plan.partitions
        }
        # One sub-index + searcher per partition, shared by its holders:
        # replicas are bit-identical by construction, so which holder
        # executes a sub-request changes only the timing, never the answer.
        self._searchers: Dict[int, ChunkSearcher] = {
            partition.partition_id: ChunkSearcher(
                build_partition_index(
                    index,
                    partition.chunk_ids,
                    name=f"{index.name}/p{partition.partition_id}",
                ),
                cost_model=cost_model,
            )
            for partition in plan.partitions
        }

    def _sub_faults(
        self, n_queries: int
    ) -> Optional[List[List[List[ShardSubFault]]]]:
        """The fault draws of every sub-request attempt a run may dispatch,
        in one call of the plan: per query and partition, one draw per
        (holder position, attempt) pair, row-major.  A (query, partition)
        pair tries each holder at most once, so its attempts number below
        its holder count.  ``None`` without a plan."""
        if self.faults is None:
            return None
        partitions = self.plan.partitions
        keys = [
            (query, partition.partition_id, shard_id, attempt)
            for query in range(n_queries)
            for partition in partitions
            for shard_id in partition.replicas
            for attempt in range(len(partition.replicas))
        ]
        flat = iter(self.faults.sub_requests(np.array(keys, dtype=np.int64)))
        return [
            [
                list(itertools.islice(flat, len(partition.replicas) ** 2))
                for partition in partitions
            ]
            for _ in range(n_queries)
        ]

    # -- the event loop ------------------------------------------------------

    def run(self, queries: np.ndarray) -> ShardRunResult:
        """Simulate the whole open-loop run over ``queries``."""
        config = self.config
        faults = self.faults
        requests = open_loop_requests(
            queries, self.truth, config.arrival_rate_qps, config.seed,
            config.deadline_s,
        )
        partitions = self.plan.partitions
        draws = self._sub_faults(len(requests))
        n_shards = self.plan.n_shards
        board = BreakerBoard(n_chunks=n_shards, region_size=1)
        pools = [WorkerPool(config.workers_per_shard) for _ in range(n_shards)]
        # Sub-requests that completed successfully / failed, per shard.
        shard_served = [0] * n_shards
        shard_failed = [0] * n_shards
        events: EventQueue[_Payload] = EventQueue()
        states: Dict[int, _QueryState] = {}
        records: List[Optional[ShardRequestRecord]] = [None] * len(requests)
        in_flight_queries = 0
        makespan = 0.0
        reclaimed_s = 0.0

        def dispatch_sub(
            state: _QueryState, subtask: _SubTask, now: float, is_hedge: bool
        ) -> bool:
            """Send the sub-request to the next viable replica; returns
            False when every holder has been tried or is breaker-blocked."""
            request = state.request
            holders = subtask.partition.replicas
            while subtask.next_target < len(holders):
                shard_id = holders[subtask.next_target]
                subtask.next_target += 1
                if not board.breakers[shard_id].allow(now):
                    state.n_breaker_skips += 1
                    continue
                attempt_no = subtask.attempt_no
                subtask.attempt_no += 1
                partition_id = subtask.partition.partition_id
                pool = pools[shard_id]
                start_est = pool.earliest_start(now)
                sub_fault = (
                    subtask.draws[
                        (subtask.next_target - 1) * len(holders)
                        + attempt_no
                    ]
                    if faults is not None
                    else SHARD_OK
                )
                result: Optional[SearchResult] = None
                if faults is not None and (
                    faults.shard_down(shard_id, start_est) or sub_fault.failed
                ):
                    duration = ERROR_DETECT_S
                else:
                    searcher = self._searchers[partition_id]
                    rule = deadline_rule(request.remaining_s(start_est))
                    kept = subtask.searched
                    if kept is not None and kept.holds_under_deadline(rule.budget_s):
                        result = kept
                    else:
                        result = searcher.search(
                            request.query, k=config.k, stop_rule=rule
                        )
                        if kept is None:
                            subtask.searched = result
                    duration = result.elapsed_s
                    if faults is not None and sub_fault.straggler:
                        duration *= STRAGGLER_FACTOR
                worker, start, finish = pool.assign(now, duration)
                event = _AttemptEvent(request.index, partition_id, attempt_no)
                events.push(finish, EVT_COMPLETION, event)
                subtask.in_flight[attempt_no] = _Attempt(
                    shard_id=shard_id,
                    worker=worker,
                    start_s=start,
                    finish_s=finish,
                    is_hedge=is_hedge,
                    result=result,
                )
                if (
                    config.hedge_delay_s > 0.0
                    and not is_hedge
                    and not subtask.hedged
                    and subtask.next_target < len(holders)
                ):
                    events.push(now + config.hedge_delay_s, EVT_TIMER, event)
                return True
            return False

        def cancel(attempt: _Attempt, now: float) -> None:
            """Drop one in-flight attempt and give back the unconsumed
            tail of its occupancy.  The pool declines (reclaims 0.0) when
            the worker has since been handed further work —
            already-scheduled work is never rewritten."""
            nonlocal reclaimed_s
            if not attempt.cancelled:
                attempt.cancelled = True
                reclaimed_s += pools[attempt.shard_id].truncate(
                    attempt.worker,
                    max(now, attempt.start_s),
                    expected_free_s=attempt.finish_s,
                )

        def finalize(state: _QueryState, now: float, at_deadline: bool) -> None:
            nonlocal in_flight_queries, makespan
            state.done = True
            in_flight_queries -= 1
            for subtask in state.subtasks.values():
                for attempt in subtask.in_flight.values():
                    cancel(attempt, now)
            request = state.request
            parts: List[Sequence[Neighbor]] = []
            covered = 0.0
            lost = 0
            trimmed = False
            for partition_id in sorted(state.subtasks):
                subtask = state.subtasks[partition_id]
                n_desc = self._partition_descriptors[partition_id]
                if subtask.result is not None:
                    parts.append(subtask.result.neighbors)
                    if subtask.result.completed:
                        covered += n_desc
                    else:
                        trimmed = True
                        covered += min(
                            float(subtask.result.trace.descriptors_scanned),
                            float(n_desc),
                        )
                else:
                    lost += 1
            merged = merge_neighbor_lists(parts, config.k)
            coverage = covered / self._total_descriptors
            exact = lost == 0 and not trimmed
            if at_deadline:
                stop_reason = f"{DeadlineBudget.label}({config.deadline_s:g}s)"
            elif exact:
                stop_reason = (
                    STOP_COMPLETED if len(merged) >= config.k else STOP_EXHAUSTED
                )
            elif coverage < QUORUM_COVERAGE:
                stop_reason = f"below-quorum(coverage={coverage:.6g})"
            elif lost:
                stop_reason = f"shard-lost(coverage={coverage:.6g})"
            else:
                stop_reason = f"trimmed(coverage={coverage:.6g})"
            latency = now - request.arrival_s
            makespan = max(makespan, now)
            records[request.index] = ShardRequestRecord(
                index=request.index,
                outcome=request_outcome(at_deadline, exact),
                stop_reason=stop_reason,
                arrival_s=request.arrival_s,
                finish_s=now,
                latency_s=latency,
                coverage_fraction=coverage,
                neighbors=tuple(merged),
                n_partitions=len(state.subtasks),
                n_lost_partitions=lost,
                n_failovers=state.n_failovers,
                n_hedges=state.n_hedges,
                n_hedge_wins=state.n_hedge_wins,
                n_breaker_skips=state.n_breaker_skips,
                recall=request_quality(
                    merged, request.truth_ids, exact, covered, self._total_descriptors
                ),
            )

        def maybe_finalize(state: _QueryState, now: float) -> None:
            if not state.done and all(
                subtask.resolved for subtask in state.subtasks.values()
            ):
                finalize(state, now, at_deadline=False)

        for request in requests:
            events.push(request.arrival_s, EVT_ARRIVAL, request)

        while events:
            now, priority, payload = events.pop()
            if isinstance(payload, QueryRequest):
                request = payload
                if in_flight_queries >= MAX_IN_FLIGHT:
                    records[request.index] = ShardRequestRecord(
                        index=request.index,
                        outcome=OUTCOME_SHED,
                        stop_reason=SHED_IN_FLIGHT,
                        arrival_s=request.arrival_s,
                    )
                    continue
                in_flight_queries += 1
                state = _QueryState(
                    request=request,
                    subtasks={
                        partition.partition_id: _SubTask(
                            partition=partition,
                            draws=() if draws is None else draws[request.index][at],
                        )
                        for at, partition in enumerate(partitions)
                    },
                )
                states[request.index] = state
                for partition_id in sorted(state.subtasks):
                    subtask = state.subtasks[partition_id]
                    if not dispatch_sub(state, subtask, now, is_hedge=False):
                        subtask.lost = True
                events.push(
                    request.deadline_s, EVT_TIMER, _DeadlineTimer(request.index)
                )
                maybe_finalize(state, now)
            elif isinstance(payload, _DeadlineTimer):
                state = states[payload.query_index]
                if not state.done:
                    finalize(state, now, at_deadline=True)
            elif priority == EVT_TIMER:
                state = states[payload.query_index]
                if state.done:
                    continue
                subtask = state.subtasks[payload.partition_id]
                attempt = subtask.in_flight.get(payload.attempt_no)
                if (
                    subtask.resolved
                    or subtask.hedged
                    or attempt is None
                    or attempt.cancelled
                ):
                    continue
                if dispatch_sub(state, subtask, now, is_hedge=True):
                    subtask.hedged = True
                    state.n_hedges += 1
            else:
                state = states[payload.query_index]
                subtask = state.subtasks[payload.partition_id]
                attempt = subtask.in_flight.pop(payload.attempt_no)
                if attempt.cancelled:
                    continue
                if attempt.result is None:
                    board.breakers[attempt.shard_id].record(False, now)
                    shard_failed[attempt.shard_id] += 1
                    if not subtask.resolved:
                        if dispatch_sub(state, subtask, now, is_hedge=False):
                            state.n_failovers += 1
                        elif not subtask.in_flight:
                            subtask.lost = True
                    maybe_finalize(state, now)
                else:
                    board.breakers[attempt.shard_id].record(True, now)
                    shard_served[attempt.shard_id] += 1
                    if subtask.result is None:
                        subtask.result = attempt.result
                        if attempt.is_hedge:
                            state.n_hedge_wins += 1
                        for other in subtask.in_flight.values():
                            cancel(other, now)
                    maybe_finalize(state, now)

        done, stats = run_summary(records)
        served_coverage = [
            record.coverage_fraction for record in done if record.served
        ]
        mean_coverage = (
            sum(served_coverage) / len(served_coverage)
            if served_coverage
            else math.nan
        )
        # The horizon covers scheduled work that outlived the last
        # finalize (declined reclaims), keeping utilization within [0, 1].
        horizon = max(
            makespan if makespan > 0.0 else requests[-1].arrival_s,
            max(pool.free_times()[-1] for pool in pools),
        )
        mean_utilization = (
            sum(pool.utilization(horizon) for pool in pools) / n_shards
            if horizon > 0.0
            else 0.0
        )
        return ShardRunResult(
            config=config,
            placement=self.plan.report(),
            records=done,
            stats=stats,
            mean_coverage=mean_coverage,
            n_failovers=sum(record.n_failovers for record in done),
            n_hedges=sum(record.n_hedges for record in done),
            n_hedge_wins=sum(record.n_hedge_wins for record in done),
            n_breaker_skips=sum(record.n_breaker_skips for record in done),
            n_lost_partitions=sum(record.n_lost_partitions for record in done),
            reclaimed_s=reclaimed_s,
            breaker_opens=board.total_opens,
            breaker_state_counts=board.state_counts(),
            breaker_transitions=board.transition_counts(),
            shard_served=shard_served,
            shard_failed=shard_failed,
            makespan_s=horizon,
            mean_utilization=mean_utilization,
        )

    def close(self) -> None:
        """Release every partition sub-index."""
        for searcher in self._searchers.values():
            searcher.close()

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
