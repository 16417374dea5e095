"""Deterministic shard-level fault plans.

The chunk-level :class:`~repro.faults.plan.FaultPlan` models *storage*
damage inside one node; a sharded service additionally fails at the
granularity of whole nodes: a replica drops a request, answers slowly,
or is down for a stretch of simulated time.  :class:`ShardFaultPlan`
models exactly those three modes, with the same purity contract as the
chunk plan — every decision is a pure function of an explicit seed and
the decision's coordinates, independent of call order, so a sharded run
replays bit for bit.

Fault taxonomy:

* ``error`` — one sub-request (query x partition x shard x attempt)
  fails fast: the shard detects the problem after :data:`ERROR_DETECT_S`
  of occupancy and the coordinator fails over to the next replica.  Each
  attempt re-draws independently, like transient chunk read errors.
* ``straggler`` — the sub-request succeeds but its service time is
  multiplied by :data:`STRAGGLER_FACTOR`; this is the tail the hedging
  policy exists to cut (Dean & Barroso's "tail at scale" case, and the
  response-time variability of Tavenard/Amsaleg/Jegou at node scale).
* ``outage`` — a shard is down for one contiguous window of the run's
  horizon; every sub-request dispatched to it during the window fails
  fast.  Windows are drawn once per shard from the seed.

Draws are :class:`numpy.random.SeedSequence` over the key ``(seed,
stream, *coordinates)``: :func:`~repro.faults.draws.listed_uniforms` for
a list of sub-request keys, :func:`~repro.faults.draws.key_uniforms` for
one shard's outage window.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from .draws import key_uniforms, listed_uniforms

__all__ = [
    "ShardSubFault",
    "ShardFaultPlan",
    "SHARD_OK",
    "ERROR_DETECT_S",
    "STRAGGLER_FACTOR",
]

#: Stream tags keeping the per-sub-request draws and the per-shard
#: outage-window draws independent of each other.
_STREAM_SUB = 0
_STREAM_OUTAGE = 1

#: Simulated occupancy charged by one failed attempt (the time the shard
#: needs to notice and report the failure).
ERROR_DETECT_S = 0.005

#: Service-time multiplier of a straggling sub-request.
STRAGGLER_FACTOR = 4.0


@dataclasses.dataclass(frozen=True)
class ShardSubFault:
    """Resolved fault behaviour of one sub-request attempt.

    ``failed`` means the attempt errors out after :data:`ERROR_DETECT_S`
    of simulated occupancy (fail fast; the coordinator fails over);
    ``straggler`` means the attempt succeeds but its service time is
    stretched by :data:`STRAGGLER_FACTOR`.  The two are mutually
    exclusive — a draw classifies into error, straggler, or clean.
    """

    failed: bool
    straggler: bool


#: Shared clean outcome (also the fast path for null plans).
SHARD_OK = ShardSubFault(failed=False, straggler=False)

#: The three outcomes by kind code: failed fast, straggling, clean.
_SUB_FAULTS = np.array(
    [
        ShardSubFault(failed=True, straggler=False),
        ShardSubFault(failed=False, straggler=True),
        SHARD_OK,
    ],
    dtype=object,
)


@dataclasses.dataclass(frozen=True)
class ShardFaultPlan:
    """Seeded, rate-parameterised shard fault model.

    Parameters
    ----------
    seed:
        Non-negative root seed; together with the decision coordinates
        it fully determines every draw.
    error_rate:
        Per-attempt probability that a sub-request fails fast.
    straggler_rate:
        Per-attempt probability that a clean sub-request is stretched
        (by :data:`STRAGGLER_FACTOR`).
    outage_rate:
        Per-shard probability of one outage window within the horizon.
    outage_duration_s, horizon_s:
        Length of an outage window and the horizon it is placed in
        (uniformly, from the seed).  Both zero disable outages.
    """

    seed: int = 0
    error_rate: float = 0.0
    straggler_rate: float = 0.0
    outage_rate: float = 0.0
    outage_duration_s: float = 0.0
    horizon_s: float = 0.0
    # Each shard's outage window, drawn on its first use.
    _windows: Dict[int, Optional[Tuple[float, float]]] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        rates = (self.error_rate, self.straggler_rate, self.outage_rate)
        if any(r < 0.0 or r > 1.0 or r != r for r in rates):
            raise ValueError(f"fault rates must lie in [0, 1], got {rates}")
        if self.error_rate + self.straggler_rate > 1.0 + 1e-12:
            raise ValueError(
                "error rate plus straggler rate must not exceed 1 "
                f"(got {self.error_rate + self.straggler_rate:g})"
            )
        if not (self.outage_duration_s >= 0.0 and self.horizon_s >= 0.0):
            raise ValueError("outage duration and horizon cannot be negative")
        if self.outage_rate > 0.0 and (
            self.outage_duration_s <= 0.0 or self.horizon_s <= 0.0
        ):
            raise ValueError(
                "a positive outage rate needs a positive outage duration "
                "and horizon"
            )

    @classmethod
    def balanced(cls, rate: float, seed: int, horizon_s: float) -> "ShardFaultPlan":
        """A plan exercising all three modes from one knob: errors and
        stragglers each at ``rate``, outages at ``rate`` per shard with
        windows spanning a tenth of the horizon.

        This is the single-knob configuration the ``shardsim`` sweep
        uses for its robustness-vs-fault-rate cells.
        """
        if rate < 0.0 or rate > 0.5:
            raise ValueError(
                f"balanced rate must lie in [0, 0.5], got {rate!r} "
                "(errors and stragglers each occur at this rate)"
            )
        if not horizon_s > 0.0:
            raise ValueError("horizon must be positive")
        return cls(
            seed=seed,
            error_rate=rate,
            straggler_rate=rate,
            outage_rate=rate,
            outage_duration_s=0.1 * horizon_s,
            horizon_s=horizon_s,
        )

    # -- deterministic draws -------------------------------------------------

    def sub_requests(self, keys: np.ndarray) -> List[ShardSubFault]:
        """Fault decisions of sub-request attempts, one per row of the
        ``(m, 4)`` integer array ``keys``: ``(query, partition, shard,
        attempt)``.

        ``attempt`` numbers every dispatch of the (query, partition)
        pair — failovers and hedges draw independently, so a retry on a
        healthy replica usually succeeds and a hedged duplicate is not
        doomed to repeat the primary's fate.  Each decision is a pure
        function of its key, whatever list it is drawn in; a sharded run
        draws every key it may dispatch in one call.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 4)
        if keys.size and keys.min() < 0:
            raise ValueError("decision coordinates must be non-negative")
        if self.error_rate == 0.0 and self.straggler_rate == 0.0:
            return [SHARD_OK] * keys.shape[0]
        u = listed_uniforms((self.seed, _STREAM_SUB), keys, 1)[:, 0]
        # 0: u < error_rate, 1: below the straggler edge too, 2: clean.
        kinds = (u >= self.error_rate).astype(np.intp)
        kinds += u >= self.error_rate + self.straggler_rate
        return _SUB_FAULTS[kinds].tolist()

    def outage_window(self, shard_id: int) -> Optional[Tuple[float, float]]:
        """The shard's outage window ``(start_s, end_s)``, or ``None``.

        At most one window per shard, drawn once per plan from the seed:
        whether the shard has an outage at all (``outage_rate``), and
        where in ``[0, horizon_s - outage_duration_s]`` it starts.
        """
        if shard_id < 0:
            raise ValueError("shard id must be non-negative")
        if self.outage_rate == 0.0:
            return None
        if shard_id not in self._windows:
            hit, where = key_uniforms(
                (self.seed, _STREAM_OUTAGE, int(shard_id)), 2
            ).tolist()
            window = None
            if hit < self.outage_rate:
                span = max(0.0, self.horizon_s - self.outage_duration_s)
                start = where * span
                window = (start, start + self.outage_duration_s)
            self._windows[shard_id] = window
        return self._windows[shard_id]

    def shard_down(self, shard_id: int, now: float) -> bool:
        """True when ``shard_id`` is inside its outage window at ``now``."""
        window = self.outage_window(shard_id)
        if window is None:
            return False
        start, end = window
        return start <= now < end
