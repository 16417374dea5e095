"""Deterministic fault plans.

A :class:`FaultPlan` is a *pure function* from ``(query_id, chunk_id,
attempt)`` to a fault decision, derived from an explicit seed by
:class:`numpy.random.SeedSequence` over a key (:mod:`~repro.faults.draws`).
Nothing here depends on call order, wall-clock time, or process state,
which is what makes fault-injection runs reproducible to the bit: a
single query, the same query inside a cohort, and a re-run tomorrow all
see exactly the same faults for the same ``(seed, query, chunk)`` triple.

Fault taxonomy (mirroring what real chunk storage exhibits):

* ``read-error`` — a transient I/O failure; a retry re-draws and usually
  succeeds (the per-attempt decision is independent).
* ``corrupt`` / ``truncate`` — persistent media damage; once drawn for a
  ``(query, chunk)`` the chunk stays unreadable for every retry.
* ``latency-spike`` — the read succeeds but costs :data:`SPIKE_S` extra
  simulated seconds (the tail-latency case of Tavenard et al.: a slow
  chunk, like a broken one, must cost bounded time).

Timing semantics (what degraded execution charges to the simulated
clock) are encoded in :meth:`FaultPlan.classify` and
:meth:`FaultPlan.unreadable_outcome`: every failed
attempt pays the chunk's read cost plus an exponential backoff delay;
a successful retry pays the preceding failures plus the normal read; a
skipped chunk pays all ``MAX_RETRIES + 1`` failed reads.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .draws import keyed_uniforms

__all__ = [
    "FAULT_NONE",
    "FAULT_SPIKE",
    "FAULT_READ_ERROR",
    "FAULT_CORRUPT",
    "FAULT_TRUNCATE",
    "FAILURE_KINDS",
    "ATTEMPT_KINDS",
    "SPIKE_S",
    "MAX_RETRIES",
    "BACKOFF_S",
    "BACKOFF_MULTIPLIER",
    "ChunkFaultOutcome",
    "OK_OUTCOME",
    "FaultPlan",
]

#: No fault: the read behaves normally.
FAULT_NONE = "none"
#: The read succeeds but takes :data:`SPIKE_S` extra simulated seconds.
FAULT_SPIKE = "latency-spike"
#: Transient read failure; retries re-draw independently.
FAULT_READ_ERROR = "read-error"
#: Persistent payload corruption (as a CRC check would detect).
FAULT_CORRUPT = "corrupt"
#: Persistent mid-chunk truncation.
FAULT_TRUNCATE = "truncate"

#: Kinds that make an attempt fail (spikes slow a read, they do not fail it).
FAILURE_KINDS = (FAULT_READ_ERROR, FAULT_CORRUPT, FAULT_TRUNCATE)

#: Persistent kinds: drawn once, they fail every subsequent attempt.
_PERSISTENT_KINDS = (FAULT_CORRUPT, FAULT_TRUNCATE)

#: What one attempt can draw, in the order of the draw intervals: an
#: attempt's *kind code* is its kind's index here.
ATTEMPT_KINDS = (
    FAULT_READ_ERROR, FAULT_CORRUPT, FAULT_TRUNCATE, FAULT_SPIKE, FAULT_NONE
)

#: Extra simulated seconds charged by one latency spike.
SPIKE_S = 0.050
#: Failed attempts are retried up to this many times before the chunk is
#: skipped.
MAX_RETRIES = 2
#: Exponential backoff: the delay charged before 0-based retry ``r`` is
#: ``BACKOFF_S * BACKOFF_MULTIPLIER ** r``.
BACKOFF_S = 0.010
BACKOFF_MULTIPLIER = 2.0

#: Stream tag of the per-(query, chunk) draws.
_STREAM_CHUNK = 0


@dataclasses.dataclass(frozen=True)
class ChunkFaultOutcome:
    """Resolved fault behaviour of one ``(query, chunk)`` access.

    Attributes
    ----------
    ok:
        True when some attempt succeeded and the chunk's contents are
        usable; False means the chunk must be skipped.
    kind:
        The dominating fault kind (the first failure drawn, or
        ``latency-spike``/``none`` for clean reads).
    attempts:
        Total read attempts consumed (``1`` for a clean first read, up
        to ``MAX_RETRIES + 1``).
    extra_io_s:
        Simulated seconds to charge *in addition to* the normal read on
        success (failed attempts, backoff delays, spike latency); on a
        skip this is the *total* I/O charge (the normal read never
        completed).
    spiked:
        True when the successful attempt carried a latency spike.
    """

    ok: bool
    kind: str
    attempts: int
    extra_io_s: float
    spiked: bool

    @property
    def retries(self) -> int:
        """Attempts beyond the first (0 when no read was ever attempted,
        e.g. a chunk skipped by an open circuit breaker)."""
        return max(0, self.attempts - 1)


#: The clean outcome shared by every un-faulted access (also the fast
#: path for null plans, keeping zero-rate runs bit-identical and cheap).
OK_OUTCOME = ChunkFaultOutcome(
    ok=True, kind=FAULT_NONE, attempts=1, extra_io_s=0.0, spiked=False
)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Seeded, rate-parameterised fault model.

    Parameters
    ----------
    seed:
        Non-negative root seed; together with ``(query_id, chunk_id)``
        it fully determines every decision.
    read_error_rate, corrupt_rate, truncate_rate:
        Per-(query, chunk) probabilities of each failure kind.
    spike_rate:
        Probability that an otherwise-clean read carries a latency spike.

    The spike's cost, the retry budget and the backoff ladder are the
    module's constants :data:`SPIKE_S`, :data:`MAX_RETRIES`,
    :data:`BACKOFF_S` and :data:`BACKOFF_MULTIPLIER`.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    spike_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        rates = (
            self.read_error_rate,
            self.corrupt_rate,
            self.truncate_rate,
            self.spike_rate,
        )
        if any(r < 0.0 or r > 1.0 or r != r for r in rates):
            raise ValueError(f"fault rates must lie in [0, 1], got {rates}")
        if self.failure_rate + self.spike_rate > 1.0 + 1e-12:
            raise ValueError(
                "failure rates plus spike rate must not exceed 1 "
                f"(got {self.failure_rate + self.spike_rate:g})"
            )

    # -- derived properties --------------------------------------------------

    @property
    def failure_rate(self) -> float:
        """Total probability that a single attempt fails."""
        return self.read_error_rate + self.corrupt_rate + self.truncate_rate

    @property
    def is_null(self) -> bool:
        """True when the plan can never inject anything."""
        return self.failure_rate == 0.0 and self.spike_rate == 0.0

    @classmethod
    def balanced(cls, rate: float, seed: int) -> "FaultPlan":
        """A plan splitting ``rate`` evenly across the three failure
        kinds, with spikes occurring at the same ``rate``.

        This is the single-knob configuration the ``faultsim`` sweep
        uses for its quality-vs-fault-rate curves.
        """
        if rate < 0.0 or rate > 0.5:
            raise ValueError(
                f"balanced rate must lie in [0, 0.5], got {rate!r} "
                "(failures and spikes each occur at this rate)"
            )
        return cls(
            seed=seed,
            read_error_rate=rate / 3.0,
            corrupt_rate=rate / 3.0,
            truncate_rate=rate / 3.0,
            spike_rate=rate,
        )

    # -- deterministic draws -------------------------------------------------

    def chunk_draws(self, queries: range, chunks: range) -> np.ndarray:
        """``(len(queries), len(chunks), MAX_RETRIES + 1)`` float64: entry
        ``[i, j]`` holds one draw per attempt of the ``(queries[i],
        chunks[j])`` access, keyed ``(seed, stream, query, chunk)`` — the
        whole grid in one vectorised call."""
        return keyed_uniforms(
            (self.seed, _STREAM_CHUNK), queries, chunks, MAX_RETRIES + 1
        )

    def kind_codes(self, draws: np.ndarray) -> np.ndarray:
        """The ``intp`` kind code (:data:`ATTEMPT_KINDS`) of every draw, any
        shape: the first interval whose upper edge exceeds it, the edges being
        the rates summed in that order — ``u < edge``, hence ``side="right"``."""
        edges = [self.read_error_rate]
        for rate in (self.corrupt_rate, self.truncate_rate, self.spike_rate):
            edges.append(edges[-1] + rate)
        return np.searchsorted(edges, draws, side="right")

    def backoff_delay_s(self, retry_index: int) -> float:
        """Backoff charged before 0-based retry ``retry_index``."""
        if retry_index < 0:
            raise ValueError("retry index cannot be negative")
        return BACKOFF_S * BACKOFF_MULTIPLIER**retry_index

    # -- the degraded-execution contract -------------------------------------

    def unreadable_outcome(self, attempt_io_s: float) -> ChunkFaultOutcome:
        """The outcome of an access whose *real* read already failed (e.g.
        an actual :class:`~repro.storage.errors.CorruptFileError`): real
        damage is treated as persistent, so every attempt fails and the
        chunk is skipped with all retries charged, each attempt at
        ``attempt_io_s``."""
        if attempt_io_s < 0.0:
            raise ValueError("attempt cost cannot be negative")
        budget = MAX_RETRIES + 1
        extra = budget * attempt_io_s
        for retry in range(budget - 1):
            extra += self.backoff_delay_s(retry)
        return ChunkFaultOutcome(
            ok=False,
            kind=FAULT_CORRUPT,
            attempts=budget,
            extra_io_s=extra,
            spiked=False,
        )

    def classify(self, codes: Sequence[int], attempt_io_s: float) -> ChunkFaultOutcome:
        """The outcome of one readable access from its row of kind codes
        (one per attempt; see :meth:`kind_codes`)."""
        budget = len(codes)
        extra = 0.0
        kind = FAULT_NONE
        persistent = False
        for attempt in range(budget):
            drawn = kind if persistent else ATTEMPT_KINDS[codes[attempt]]
            if drawn in _PERSISTENT_KINDS:
                persistent = True
            if kind == FAULT_NONE and drawn in FAILURE_KINDS:
                kind = drawn
            if persistent or drawn == FAULT_READ_ERROR:
                # Failed attempt: the read is paid in full, plus a
                # backoff delay when a retry follows.
                extra += attempt_io_s
                if attempt < budget - 1:
                    extra += self.backoff_delay_s(attempt)
                continue
            spiked = drawn == FAULT_SPIKE
            if spiked:
                extra += SPIKE_S
                if kind == FAULT_NONE:
                    kind = FAULT_SPIKE
            return ChunkFaultOutcome(
                ok=True,
                kind=kind,
                attempts=attempt + 1,
                extra_io_s=extra,
                spiked=spiked,
            )
        return ChunkFaultOutcome(
            ok=False, kind=kind, attempts=budget, extra_io_s=extra, spiked=False
        )
