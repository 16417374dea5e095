"""Discrete-event substrate: the future-event list and the worker timeline.

:class:`EventQueue` is the one event ordering both service simulators
run on: a heap keyed ``(time, priority, insertion rank)``, so a run's
event order is total and a pure function of what was pushed.

The query service admits an open-loop arrival stream into a pool of
identical workers.  :class:`WorkerPool` is the simulated-time substrate
for that pool: it tracks when each worker next becomes free, assigns
work to the earliest-free worker (FIFO across assignments, deterministic
tie-break by worker id), and accounts for the two quantities the service
reports — per-request queueing wait and aggregate worker busy time.

Nothing here knows about searches or requests; durations are opaque
simulated seconds, which keeps the module reusable (and importable) from
any layer that owns a notion of work.  Tavenard/Amsaleg/Jégou's point
about response-time *variability* is exactly a statement about the wait
component this class isolates: with skewed service times, the queue —
not the mean — drives the tail.
"""

from __future__ import annotations

import heapq
from typing import Generic, List, Tuple, TypeVar

__all__ = [
    "EventQueue",
    "EVT_COMPLETION",
    "EVT_TIMER",
    "EVT_ARRIVAL",
    "WorkerPool",
]

#: Event priorities at equal timestamps: a completion frees capacity and
#: resolves work before a timer consults it, and an arrival "at the same
#: instant" sees the settled system.
EVT_COMPLETION = 0
EVT_TIMER = 1
EVT_ARRIVAL = 2

T = TypeVar("T")


class EventQueue(Generic[T]):
    """Future-event list ordered by ``(time, priority, insertion rank)``.

    The insertion rank (the token :meth:`push` returns) is unique, so
    the order is total — equal ``(time, priority)`` events pop in push
    order — and the payload riding behind it is never compared.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, T]] = []
        self._pushed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time_s: float, priority: int, payload: T) -> int:
        """Schedule ``payload`` at ``time_s``; returns its insertion rank."""
        token = self._pushed
        self._pushed += 1
        heapq.heappush(self._heap, (time_s, priority, token, payload))
        return token

    def pop(self) -> Tuple[float, int, T]:
        """Remove and return the next ``(time_s, priority, payload)``."""
        time_s, priority, _, payload = heapq.heappop(self._heap)
        return time_s, priority, payload


class WorkerPool:
    """Earliest-free-worker assignment over ``n_workers`` identical servers.

    The pool is a deterministic min-heap of ``(free_time, worker_id)``
    pairs: :meth:`assign` always hands work to the worker that frees up
    first, breaking ties by the smaller worker id, so a given sequence
    of ``(now, duration)`` calls always produces the same schedule.
    """

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        self._free: List[Tuple[float, int]] = [
            (0.0, worker) for worker in range(n_workers)
        ]
        heapq.heapify(self._free)
        self.n_workers = int(n_workers)
        #: Total simulated seconds workers spent serving assignments.
        self.busy_s = 0.0
        #: Total simulated seconds assignments waited for a free worker
        #: beyond their hand-off time (the queueing wait the service adds
        #: on top of pure service time).
        self.total_wait_s = 0.0
        #: Assignments made so far.
        self.n_assigned = 0

    # -- introspection -------------------------------------------------------

    def earliest_start(self, now: float) -> float:
        """Earliest time work handed over at ``now`` could begin."""
        return max(now, self._free[0][0])

    def idle_workers(self, now: float) -> int:
        """Workers free at ``now`` (i.e. whose last assignment finished)."""
        return sum(1 for free_time, _ in self._free if free_time <= now)

    def free_times(self) -> List[float]:
        """Sorted copy of each worker's next-free timestamp.

        Admission control replays this against estimated service times to
        predict when a newly queued request would start.
        """
        return sorted(free_time for free_time, _ in self._free)

    def utilization(self, horizon_s: float) -> float:
        """Busy fraction of total worker-seconds over ``[0, horizon_s]``."""
        if horizon_s <= 0.0:
            raise ValueError(f"horizon must be positive, got {horizon_s}")
        return self.busy_s / (self.n_workers * horizon_s)

    # -- assignment ----------------------------------------------------------

    def assign(self, now: float, duration_s: float) -> Tuple[int, float, float]:
        """Hand one unit of work to the earliest-free worker.

        Parameters
        ----------
        now:
            Simulated time at which the work becomes available (its
            arrival at the head of the queue).
        duration_s:
            Service duration in simulated seconds.

        Returns ``(worker_id, start_s, finish_s)`` where
        ``start_s = max(now, worker free time)``; the difference
        ``start_s - now`` is accumulated into :attr:`total_wait_s`.
        """
        if duration_s < 0.0:
            raise ValueError(f"duration cannot be negative, got {duration_s}")
        free_time, worker = heapq.heappop(self._free)
        start = max(now, free_time)
        finish = start + duration_s
        heapq.heappush(self._free, (finish, worker))
        self.busy_s += duration_s
        self.total_wait_s += start - now
        self.n_assigned += 1
        return worker, start, finish

    # -- cancellation --------------------------------------------------------

    def truncate(
        self, worker: int, at_s: float, expected_free_s: float
    ) -> float:
        """Cut ``worker``'s current occupancy short at ``at_s``.

        First-wins hedging needs to *reclaim* a loser's remaining
        occupancy: when the duplicate of a hedged pair answers first,
        the other copy's worker should stop burning simulated time.
        The caller identifies the assignment being cancelled by its
        scheduled finish time (``expected_free_s``, the value
        :meth:`assign` returned); if the worker has since been handed
        further work its free time no longer matches and the truncation
        is declined — already-scheduled work is never rewritten, only
        unconsumed capacity is returned.

        Returns the simulated seconds reclaimed (0.0 when declined).
        The reclaimed span is also credited back out of :attr:`busy_s`,
        so utilization reflects work actually performed.
        """
        if at_s < 0.0:
            raise ValueError(f"truncation time cannot be negative, got {at_s}")
        for slot, (free_time, worker_id) in enumerate(self._free):
            if worker_id != worker:
                continue
            if free_time != expected_free_s or at_s >= free_time:
                return 0.0
            self._free[slot] = (at_s, worker_id)
            heapq.heapify(self._free)
            freed = free_time - at_s
            self.busy_s -= freed
            return freed
        raise ValueError(f"unknown worker {worker}")
