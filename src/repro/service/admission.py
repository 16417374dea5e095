"""Admission control: a bounded queue with predictive load shedding.

An open-loop arrival stream offered to a finite worker pool has only
three steady states: underload (queue empty), saturation (queue bounded
by luck), or collapse (queue grows without bound and *every* request
eventually misses its deadline).  Admission control converts collapse
into explicit, cheap rejection: a request is shed at arrival — before
any work is spent on it — when either

* the queue is at capacity (``"queue-full"``), or
* replaying the queue against the worker pool's next-free times and the
  running service-time estimate predicts the request would finish past
  its deadline (``"predicted-late"``).

Both decisions are pure functions of simulated state, which is itself a
pure function of the run's seeds — shedding is deterministic and
replayable, never a coin flip at serve time.

The service-time estimate is an EWMA of observed service durations; it
adapts as the degradation controller shrinks budgets (shorter searches
-> lower estimate -> fewer sheds), closing the loop between the two
mechanisms.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from .request import QueryRequest

__all__ = [
    "AdmissionController",
    "QUEUE_CAPACITY",
    "SERVICE_TIME_ALPHA",
    "SHED_QUEUE_FULL",
    "SHED_PREDICTED_LATE",
]

#: Shed reason: the bounded queue was at capacity.
SHED_QUEUE_FULL = "queue-full"
#: Shed reason: the wait estimate predicted a deadline miss.
SHED_PREDICTED_LATE = "predicted-late"
#: Bound on requests waiting (excluding those being served).
QUEUE_CAPACITY = 32
#: EWMA gain of the service-time estimate:
#: ``estimate += SERVICE_TIME_ALPHA * (observed - estimate)``.
SERVICE_TIME_ALPHA = 0.2


class AdmissionController:
    """Shed-or-admit decisions plus the service-time estimator.

    Parameters
    ----------
    initial_service_estimate_s:
        Seed value of the EWMA service-time estimate, used until real
        observations arrive (a calibration baseline, e.g. the mean
        fault-free completion time).
    shed_slack:
        Multiplier on the relative deadline: admit while the predicted
        completion is within ``arrival + shed_slack * deadline``.
    """

    def __init__(self, initial_service_estimate_s: float, shed_slack: float = 1.0):
        if not initial_service_estimate_s > 0.0:
            raise ValueError("initial service estimate must be positive")
        if not shed_slack > 0.0:
            raise ValueError("shed slack must be positive")
        self.service_estimate_s = float(initial_service_estimate_s)
        self.shed_slack = float(shed_slack)
        self.n_shed_full = 0
        self.n_shed_late = 0

    # -- prediction ----------------------------------------------------------

    def predicted_start_s(
        self, now: float, free_times: List[float], queue_len: int
    ) -> float:
        """Predicted start time of a request arriving at ``now`` behind
        ``queue_len`` queued requests.

        Replays FIFO dispatch over a copy of the pool's next-free times,
        charging each queued request the current service estimate — the
        same earliest-free-worker rule the real dispatcher uses, so the
        prediction error is exactly the service-time estimation error.
        """
        if not free_times:
            raise ValueError("need at least one worker free time")
        virtual = list(free_times)
        heapq.heapify(virtual)
        for _ in range(queue_len):
            free = heapq.heappop(virtual)
            heapq.heappush(virtual, max(now, free) + self.service_estimate_s)
        return max(now, virtual[0])

    # -- the decision --------------------------------------------------------

    def decide(
        self,
        request: QueryRequest,
        now: float,
        free_times: List[float],
        queue_len: int,
    ) -> Tuple[bool, str]:
        """``(admit, shed_reason)`` for one arrival.

        ``shed_reason`` is ``""`` when admitted, else one of
        :data:`SHED_QUEUE_FULL` / :data:`SHED_PREDICTED_LATE`.
        """
        if queue_len >= QUEUE_CAPACITY:
            self.n_shed_full += 1
            return False, SHED_QUEUE_FULL
        start = self.predicted_start_s(now, free_times, queue_len)
        predicted_finish = start + self.service_estimate_s
        slack_deadline = request.arrival_s + self.shed_slack * (
            request.deadline_s - request.arrival_s
        )
        if predicted_finish > slack_deadline:
            self.n_shed_late += 1
            return False, SHED_PREDICTED_LATE
        return True, ""

    # -- feedback ------------------------------------------------------------

    def observe_service_time(self, service_s: float) -> None:
        """Fold one observed service duration into the EWMA estimate."""
        if service_s < 0.0:
            raise ValueError("service time cannot be negative")
        self.service_estimate_s += SERVICE_TIME_ALPHA * (
            service_s - self.service_estimate_s
        )
