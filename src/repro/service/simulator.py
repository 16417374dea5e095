"""The resilient query service: a deterministic discrete-event simulation.

This module wires the four mechanisms — deadline propagation
(:mod:`.deadline`), admission control (:mod:`.admission`), circuit
breakers (:mod:`.breaker`) and adaptive degradation (:mod:`.controller`)
— around one :class:`~repro.core.search.ChunkSearcher` worker
pool, fed by a seeded open-loop Poisson arrival stream.  Everything runs
on the *simulated* clock: service durations come from the cost model
(the paper's calibrated 2004 hardware), waits from the worker pool's
queueing timeline, faults from the pure fault plan.  A run is therefore
a pure function of ``(index, workload, config, fault plan)`` — replaying
it with the same seeds reproduces every timestamp, shed decision,
breaker trip and budget adjustment bit for bit.

Event loop
----------
Events pop from one :class:`~repro.simio.queueing.EventQueue` in
``(time, priority, insertion)`` order; completions sort before arrivals
at equal timestamps (a freed worker is visible to work arriving "at the
same instant").  Two event kinds:

* **arrival** — the admission controller decides shed-or-admit from the
  queue length and the pool's next-free times; admitted requests enter
  the FIFO queue and dispatch immediately if a worker is idle.
* **completion** — the finished search's trace feeds the breaker board
  and the admission EWMA, its latency feeds the degradation controller,
  the record is written, and the freed worker pulls the next queued
  request.

The queue is *late-binding*: a request waits in the FIFO with nothing
decided, dispatch happens only at event instants, and a dispatched
request always starts *now* (an idle worker's ``free_time <= now``).
That is what lets the service fix the search's stop rule, chunk budget
and breaker view at dispatch time, from the deadline actually remaining
and the controller's current budget.  (The sharded coordinator binds
*early* instead — see :mod:`repro.service.sharding.coordinator`.)
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.metrics import OUTCOME_SHED, SloStats
from ..core.search import ChunkSearcher, SearchResult
from ..core.stop_rules import DeadlineBudget
from ..faults.injector import FaultInjector
from ..simio.queueing import EVT_ARRIVAL, EVT_COMPLETION, EventQueue, WorkerPool
from .admission import AdmissionController
from .breaker import BREAKER_OPEN, BreakerBoard, BreakerGuardedInjector
from .controller import INITIAL_CHUNK_BUDGET, MIN_CHUNK_BUDGET, AdaptiveBudgetController
from .deadline import propagated_stop_rule
from .request import (
    QueryRequest,
    RequestRecord,
    ServiceConfig,
    open_loop_requests,
    request_outcome,
    request_quality,
    run_summary,
)

__all__ = ["QueryService", "ServiceRunResult", "REGION_SIZE"]

#: Chunks per circuit-breaker region (the sharded service breaks per shard
#: instead).
REGION_SIZE = 8

#: Completion payload: ``(request, result, start_s, worker, chunk_budget)``.
_Completion = Tuple[QueryRequest, SearchResult, float, int, int]


@dataclasses.dataclass(frozen=True)
class ServiceRunResult:
    """Everything one simulated-traffic run produced.

    ``records`` is ordered by request index (= workload order), not by
    completion time.  ``stats`` aggregates outcomes/latencies/recall via
    :func:`~repro.service.request.run_summary`.  ``budget_history`` is the
    controller's ``(completion_count, budget)`` timeline (0 = unbounded);
    ``breaker_state_counts`` is the final closed/open/half-open census.
    """

    config: ServiceConfig
    records: List[RequestRecord]
    stats: SloStats
    budget_history: List[Tuple[int, int]]
    final_budget: int
    n_shrinks: int
    n_grows: int
    n_shed_full: int
    n_shed_late: int
    service_estimate_s: float
    breaker_opens: int
    breaker_state_counts: Dict[str, int]
    breaker_transitions: Dict[str, int]
    breaker_skipped_chunks: int
    makespan_s: float
    utilization: float

    def to_report(self) -> Dict[str, object]:
        """Deterministic, JSON-ready summary (no per-request records)."""
        stats = dataclasses.asdict(self.stats)
        return {
            "config": dataclasses.asdict(self.config),
            "slo": stats,
            "controller": {
                "budget_history": [list(point) for point in self.budget_history],
                "final_budget": self.final_budget,
                "n_shrinks": self.n_shrinks,
                "n_grows": self.n_grows,
            },
            "admission": {
                "n_shed_full": self.n_shed_full,
                "n_shed_late": self.n_shed_late,
                "service_estimate_s": self.service_estimate_s,
            },
            "breakers": {
                "opens": self.breaker_opens,
                "state_counts": dict(sorted(self.breaker_state_counts.items())),
                "transitions": dict(sorted(self.breaker_transitions.items())),
                "skipped_chunks": self.breaker_skipped_chunks,
            },
            "makespan_s": self.makespan_s,
            "utilization": self.utilization,
        }


class QueryService:
    """Simulated resilient query service over one chunk index.

    Parameters
    ----------
    searcher:
        The (batched) search engine; each simulated worker runs one
        request at a time through it.  The searcher is used one query
        per call with the request's stable workload index as its fault
        key, so fault draws match a whole-workload batch run.
    config:
        All service tunables; see :class:`~repro.service.request.ServiceConfig`.
    faults:
        Optional fault injector.  A request that starts while a
        breaker region is blocked searches through a
        :class:`~repro.service.breaker.BreakerGuardedInjector` around it;
        any other request gets the injector itself.
    true_neighbor_ids:
        Optional per-query ground-truth id lists; when given, a served
        request's ``recall`` is true precision-at-k, otherwise the
        descriptor-coverage proxy.
    """

    def __init__(
        self,
        searcher: ChunkSearcher,
        config: ServiceConfig,
        faults: Optional[FaultInjector] = None,
        true_neighbor_ids: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ):
        self.searcher = searcher
        self.config = config
        self.faults = faults
        self.truth = true_neighbor_ids
        self.n_chunks = searcher.index.n_chunks
        self._total_descriptors = int(
            np.asarray(searcher.index.descriptor_counts()).sum()
        )

    # -- per-request execution ----------------------------------------------

    def _run_request(
        self, request: QueryRequest, start_s: float, board: BreakerBoard,
        chunk_budget: int,
    ) -> SearchResult:
        """Execute one request's search as of ``start_s`` (simulated)."""
        rule = propagated_stop_rule(
            request.remaining_s(start_s), chunk_budget, self.n_chunks
        )
        # The facade only matters where a region is blocked; elsewhere it
        # would hand back the inner injector's outcomes (or clean ones).
        blocked = board.blocked_regions(start_s)
        faults: Optional[Union[FaultInjector, BreakerGuardedInjector]] = None
        if blocked:
            faults = BreakerGuardedInjector(self.faults, board, blocked)
        elif self.faults is not None and not self.faults.is_null:
            faults = self.faults
        batch = self.searcher.search_batch(
            request.query,
            k=self.config.k,
            stop_rule=rule,
            true_neighbor_ids=None if request.truth_ids is None else [request.truth_ids],
            faults=faults,  # type: ignore[arg-type]
            query_indices=[request.index],
        )
        return batch[0]

    # -- the event loop ------------------------------------------------------

    def run(self, queries: np.ndarray) -> ServiceRunResult:
        """Simulate the whole open-loop run over ``queries``.

        ``queries`` is the ``(n, d)`` workload matrix; request ``i``
        carries query ``i`` and arrives at the seeded Poisson schedule's
        ``times_s[i]``.
        """
        config = self.config
        requests = open_loop_requests(
            queries, self.truth, config.arrival_rate_qps, config.seed,
            config.deadline_s,
        )
        pool = WorkerPool(config.n_workers)
        admission = AdmissionController(
            initial_service_estimate_s=(
                config.initial_service_estimate_s or config.deadline_s
            ),
            shed_slack=config.shed_slack,
        )
        board = BreakerBoard(n_chunks=self.n_chunks, region_size=REGION_SIZE)
        controller = AdaptiveBudgetController(
            initial_budget=INITIAL_CHUNK_BUDGET,
            n_chunks=self.n_chunks,
            min_budget=MIN_CHUNK_BUDGET,
            target_p99_s=config.target_p99_s,
        )

        events: EventQueue[Union[QueryRequest, _Completion]] = EventQueue()
        for request in requests:
            events.push(request.arrival_s, EVT_ARRIVAL, request)
        queue: List[QueryRequest] = []  # FIFO via pop(0); bounded, so cheap
        records: List[Optional[RequestRecord]] = [None] * len(requests)
        breaker_skipped_chunks = 0
        makespan = 0.0

        def dispatch(now: float) -> None:
            while queue and pool.idle_workers(now) > 0:
                request = queue.pop(0)
                chunk_budget = controller.budget
                result = self._run_request(request, now, board, chunk_budget)
                worker, start, finish = pool.assign(now, result.elapsed_s)
                events.push(
                    finish,
                    EVT_COMPLETION,
                    (request, result, start, worker, chunk_budget),
                )

        while events:
            now, _, payload = events.pop()
            if isinstance(payload, QueryRequest):
                request = payload
                admit, shed_reason = admission.decide(
                    request, now, pool.free_times(), len(queue)
                )
                if not admit:
                    records[request.index] = RequestRecord(
                        index=request.index,
                        outcome=OUTCOME_SHED,
                        stop_reason=shed_reason,
                        arrival_s=request.arrival_s,
                    )
                    continue
                queue.append(request)
                dispatch(now)
            else:
                request, result, start, worker, chunk_budget = payload
                makespan = max(makespan, now)
                duration = now - start
                board.observe_trace(result.trace, now)
                admission.observe_service_time(duration)
                latency = now - request.arrival_s
                controller.observe(latency)
                breaker_skips = sum(
                    1 for _, fault, _ in result.trace.faults.values()
                    if fault == BREAKER_OPEN
                )
                breaker_skipped_chunks += breaker_skips
                records[request.index] = RequestRecord(
                    index=request.index,
                    outcome=request_outcome(
                        result.stop_reason.startswith(f"{DeadlineBudget.label}("),
                        result.completed,
                    ),
                    stop_reason=result.stop_reason,
                    arrival_s=request.arrival_s,
                    start_s=start,
                    finish_s=now,
                    latency_s=latency,
                    wait_s=start - request.arrival_s,
                    chunk_budget=chunk_budget,
                    chunks_read=result.chunks_read,
                    chunks_skipped=result.chunks_skipped,
                    breaker_skips=breaker_skips,
                    recall=request_quality(
                        result.neighbors, request.truth_ids, result.completed,
                        result.trace.descriptors_scanned, self._total_descriptors,
                    ),
                    worker=worker,
                )
                dispatch(now)

        done, stats = run_summary(records)
        horizon = makespan if makespan > 0.0 else requests[-1].arrival_s
        return ServiceRunResult(
            config=config,
            records=done,
            stats=stats,
            budget_history=list(controller.history),
            final_budget=controller.budget,
            n_shrinks=controller.n_shrinks,
            n_grows=controller.n_grows,
            n_shed_full=admission.n_shed_full,
            n_shed_late=admission.n_shed_late,
            service_estimate_s=admission.service_estimate_s,
            breaker_opens=board.total_opens,
            breaker_state_counts=board.state_counts(),
            breaker_transitions=board.transition_counts(),
            breaker_skipped_chunks=breaker_skipped_chunks,
            makespan_s=horizon,
            utilization=pool.utilization(horizon) if horizon > 0.0 else 0.0,
        )
