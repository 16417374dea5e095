"""Open-loop arrival processes for simulated traffic.

The paper measures queries one at a time; a production service meets
them as an *open-loop stream* — clients issue requests at their own rate
regardless of how far the server has fallen behind, which is exactly the
regime in which tail latency, shedding and degradation become visible.
This module generates such streams deterministically: a seeded Poisson
process (exponential inter-arrival gaps) over the queries of an existing
:class:`~repro.workloads.queries.Workload`.

Everything is a pure function of ``(n, rate, seed)`` so a traffic
simulation replays bit-identically.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["ArrivalSchedule", "poisson_arrival_times"]


@dataclasses.dataclass(frozen=True)
class ArrivalSchedule:
    """Arrival timestamps for one open-loop run.

    ``times_s[i]`` is the simulated arrival time of request ``i`` (the
    ``i``-th workload query); strictly non-decreasing, starting after 0.
    """

    rate_qps: float
    seed: int
    times_s: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "times_s", np.ascontiguousarray(self.times_s, dtype=np.float64)
        )
        if self.times_s.ndim != 1:
            raise ValueError("arrival times must be a 1-d vector")
        if self.times_s.size and np.any(np.diff(self.times_s) < 0):
            raise ValueError("arrival times must be non-decreasing")

    def __len__(self) -> int:
        return int(self.times_s.shape[0])


def poisson_arrival_times(
    n_requests: int, rate_qps: float, seed: int
) -> ArrivalSchedule:
    """Seeded Poisson arrivals: ``n_requests`` timestamps at ``rate_qps``.

    Inter-arrival gaps are independent exponentials with mean
    ``1 / rate_qps``, drawn from ``numpy.random.default_rng(seed)`` in
    arrival order — same ``(n, rate, seed)``, same stream, bit for bit.
    ``times_s`` is float64.
    """
    if n_requests < 1:
        raise ValueError(f"need at least one request, got {n_requests}")
    if not rate_qps > 0.0:
        raise ValueError(f"arrival rate must be positive, got {rate_qps}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_qps, size=n_requests)
    return ArrivalSchedule(
        rate_qps=float(rate_qps),
        seed=int(seed),
        times_s=np.cumsum(gaps),
    )
