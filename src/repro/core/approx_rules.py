"""Approximation-controlled stop rules from the related work.

The paper's section 6 surveys stop criteria beyond "n chunks" and "time
budget":

* **AC-NN** (Ciaccia & Patella, ICDE 2000): a user-set relative error
  ``epsilon`` — stop once no unread chunk can contain a descriptor closer
  than ``kth_distance / (1 + epsilon)``.  The returned k-th neighbor is
  then provably within a factor ``(1 + epsilon)`` of the true k-th
  distance.
* **PAC-NN** (same paper): *probably approximately correct* — combine the
  epsilon test with a confidence parameter ``delta``: stop as soon as the
  estimated probability that a remaining descriptor beats the relaxed
  bound falls below ``delta``.  The probability comes from a sampled
  distance distribution collected at index build time.

VA-BND (Weber & Böhm, EDBT 2000) uses the same relaxation with
``epsilon`` estimated by sampling database vectors; no estimator is
shipped here, so :class:`EpsilonApproximation` takes a user-set value.

These integrate with the chunk search as ordinary
:class:`~repro.core.stop_rules.StopRule` objects, consuming the
``remaining_lower_bound`` the searcher already maintains.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .dataset import DescriptorCollection
from .distance import squared_distances
from .stop_rules import SearchProgress, StopRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chunk_index import ChunkIndex

__all__ = [
    "EpsilonApproximation",
    "PacApproximation",
    "DistanceDistribution",
    "N_QUERY_SAMPLES",
    "N_POINT_SAMPLES",
]

#: Random queries and points :meth:`DistanceDistribution.sample` pairs up
#: (each capped at the collection size).
N_QUERY_SAMPLES = 50
N_POINT_SAMPLES = 200


class EpsilonApproximation(StopRule):
    """AC-NN stop rule: (1 + epsilon)-approximate completion.

    Stops once ``k`` neighbors are known and every unread chunk's lower
    bound exceeds ``kth_distance / (1 + epsilon)``.  With ``epsilon = 0``
    this degenerates to the exact completion proof.
    """

    def __init__(self, epsilon: float, k: int):
        if epsilon < 0 or math.isnan(epsilon):
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if k < 1:
            raise ValueError("k must be positive")
        self.epsilon = float(epsilon)
        self.k = int(k)

    def check(self, progress: SearchProgress) -> Optional[str]:
        if progress.neighbors_found < self.k:
            return None
        if math.isinf(progress.kth_distance):
            return None
        relaxed = progress.kth_distance / (1.0 + self.epsilon)
        if progress.remaining_lower_bound > relaxed:
            return f"epsilon-approx({self.epsilon:g})"
        return None

    def __repr__(self) -> str:
        return f"EpsilonApproximation(epsilon={self.epsilon!r}, k={self.k})"


class DistanceDistribution:
    """Empirical distribution of query-to-descriptor distances.

    Sampled once per collection (typically at index build time); the PAC
    rule uses its CDF to estimate how likely a *single random* descriptor
    is to fall under a distance threshold, and from that the probability
    that any of ``n_remaining`` descriptors does.
    """

    def __init__(self, samples: np.ndarray):
        samples = np.asarray(samples, dtype=np.float64).reshape(-1)
        if samples.size == 0:
            raise ValueError("need at least one distance sample")
        if np.any(samples < 0) or np.any(~np.isfinite(samples)):
            raise ValueError("distance samples must be finite and non-negative")
        self._sorted = np.sort(samples)

    @classmethod
    def sample(
        cls, collection: DescriptorCollection, seed: int = 0
    ) -> "DistanceDistribution":
        """Estimate the distribution from :data:`N_QUERY_SAMPLES` random
        queries times :data:`N_POINT_SAMPLES` random points."""
        if len(collection) < 2:
            raise ValueError("need at least two descriptors to sample distances")
        rng = np.random.default_rng(seed)
        n = len(collection)
        queries = collection.vectors[
            rng.choice(n, size=min(N_QUERY_SAMPLES, n), replace=False)
        ].astype(np.float64)
        points = collection.vectors[
            rng.choice(n, size=min(N_POINT_SAMPLES, n), replace=False)
        ]
        distances = []
        for query in queries:
            distances.append(np.sqrt(squared_distances(query, points)))
        return cls(np.concatenate(distances))

    def cdf(self, distance: float) -> float:
        """P(a random descriptor lies within ``distance`` of a query)."""
        if distance < 0:
            return 0.0
        rank = np.searchsorted(self._sorted, distance, side="right")
        return float(rank) / self._sorted.size

    def probability_any_within(self, distance: float, n_remaining: int) -> float:
        """P(at least one of ``n_remaining`` i.i.d. descriptors is within
        ``distance``) = 1 - (1 - cdf)^n."""
        if n_remaining <= 0:
            return 0.0
        p = self.cdf(distance)
        if p >= 1.0:
            return 1.0
        return 1.0 - (1.0 - p) ** n_remaining


class PacApproximation(StopRule):
    """PAC-NN stop rule: stop when the probability that any remaining
    descriptor improves the (relaxed) k-th distance drops below ``delta``.

    Needs to know how many descriptors remain unread; the searcher does
    not expose that directly, so the rule tracks the total and subtracts
    an estimate from ``chunks_read`` times the mean chunk size — callers
    construct it per index via :meth:`for_index`.
    """

    def __init__(
        self,
        epsilon: float,
        delta: float,
        distribution: DistanceDistribution,
        total_descriptors: int,
        mean_chunk_size: float,
    ):
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if total_descriptors < 1 or mean_chunk_size <= 0:
            raise ValueError("invalid index statistics")
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.distribution = distribution
        self.total_descriptors = int(total_descriptors)
        self.mean_chunk_size = float(mean_chunk_size)

    @classmethod
    def for_index(
        cls,
        index: "ChunkIndex",
        collection: "DescriptorCollection",
        epsilon: float = 0.1,
        delta: float = 0.05,
        seed: int = 0,
    ) -> "EarlyTerminationRule":
        """Build the rule for one chunk index, sampling the distance
        distribution from its backing collection."""
        distribution = DistanceDistribution.sample(collection, seed=seed)
        counts = index.descriptor_counts()
        return cls(
            epsilon=epsilon,
            delta=delta,
            distribution=distribution,
            total_descriptors=int(counts.sum()),
            mean_chunk_size=float(counts.mean()),
        )

    def check(self, progress: SearchProgress) -> Optional[str]:
        if math.isinf(progress.kth_distance):
            return None
        remaining = self.total_descriptors - int(
            round(progress.chunks_read * self.mean_chunk_size)
        )
        if remaining <= 0:
            return None  # the exactness proof will fire anyway
        relaxed = progress.kth_distance / (1.0 + self.epsilon)
        p_improve = self.distribution.probability_any_within(relaxed, remaining)
        if p_improve < self.delta:
            return f"pac({self.epsilon:g},{self.delta:g})"
        return None

    def __repr__(self) -> str:
        return (
            f"PacApproximation(epsilon={self.epsilon!r}, delta={self.delta!r}, "
            f"total={self.total_descriptors})"
        )
