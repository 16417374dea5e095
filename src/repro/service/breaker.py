"""Per-chunk-region circuit breakers over the fault injector.

Degraded execution (PR 3) pays for every broken chunk *individually*:
``MAX_RETRIES + 1`` failed reads plus exponential backoff, per query,
per chunk.  When damage is regional — a bad platter zone, a sick shard —
that price is paid over and over by every request that ranks a chunk
from the region.  A circuit breaker converts the repeated price into a
one-time observation: after enough failures in a region's rolling
window, the breaker *opens* and subsequent requests skip the region's
chunks outright, charging zero I/O instead of a full retry ladder.

State machine (classic three-state, on the simulated clock):

* **closed** — accesses flow through; outcomes land in a rolling window
  of :data:`BREAKER_WINDOW`; :data:`BREAKER_FAILURE_THRESHOLD` failures
  within the window trip the breaker.
* **open** — every access to the region is skipped (no retries, no I/O
  charge) until :data:`BREAKER_COOLDOWN_S` of simulated time has passed.
* **half-open** — after the cooldown the region is probed: accesses flow
  through again; a single failure re-opens (and restarts the cooldown),
  :data:`BREAKER_PROBE_SUCCESSES` consecutive successes close it.

The four are constants shared by both services.

Decisions are made at request *start* (a request sees the breaker state
as of its start time) and observations are folded in at request
*completion* — the coarsest consistent ordering, and a deterministic one:
both instants are events of the simulated timeline.

The skip surfaces in traces as a skipped chunk with fault kind
:data:`BREAKER_OPEN` and zero retries, so coverage accounting and the
``proof-degraded`` stop reason treat breaker losses exactly like
exhausted-retry losses — quality honestly withdrawn, time honestly not
spent.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional

from ..core.trace import SearchTrace
from ..faults.injector import FaultInjector, OutcomeTable
from ..faults.plan import FAILURE_KINDS, OK_OUTCOME, ChunkFaultOutcome

__all__ = [
    "BREAKER_OPEN",
    "BREAKER_SKIP_OUTCOME",
    "BREAKER_WINDOW",
    "BREAKER_FAILURE_THRESHOLD",
    "BREAKER_COOLDOWN_S",
    "BREAKER_PROBE_SUCCESSES",
    "STATE_CLOSED",
    "STATE_OPEN",
    "STATE_HALF_OPEN",
    "RegionBreaker",
    "BreakerBoard",
    "BreakerGuardedInjector",
]

#: Fault kind recorded for a chunk skipped because its region's breaker
#: was open (no read was attempted; distinct from every injected kind).
BREAKER_OPEN = "breaker-open"

#: The outcome a guarded injector returns for a breaker-skipped chunk:
#: not ok (the chunk is skipped), zero attempts, zero I/O charge — the
#: entire point of the breaker is to not pay the retry ladder.
BREAKER_SKIP_OUTCOME = ChunkFaultOutcome(
    ok=False, kind=BREAKER_OPEN, attempts=0, extra_io_s=0.0, spiked=False
)

#: Outcomes a closed breaker's rolling window holds, in both services.
BREAKER_WINDOW = 16
#: Failures within the window that trip a closed breaker.
BREAKER_FAILURE_THRESHOLD = 4
#: Simulated seconds an open breaker waits before probing.
BREAKER_COOLDOWN_S = 1.0
#: Consecutive half-open successes that close a breaker, in both services.
BREAKER_PROBE_SUCCESSES = 2

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class RegionBreaker:
    """Breaker state machine for one chunk region (the module's
    ``BREAKER_*`` constants)."""

    def __init__(self) -> None:
        self.state = STATE_CLOSED
        self.opened_at_s = 0.0
        #: Transition counters: closed/half-open -> open trips,
        #: open -> half-open cooldown expiries, half-open -> closed
        #: recoveries.  Together they expose the full state-machine
        #: history of the run, not just its final census.
        self.open_count = 0
        self.half_open_count = 0
        self.close_count = 0
        self._outcomes: Deque[bool] = deque(maxlen=BREAKER_WINDOW)
        self._window_failures = 0
        self._probe_ok = 0

    # -- decisions -----------------------------------------------------------

    def allow(self, now: float) -> bool:
        """May the region be accessed at ``now``?  Advances open ->
        half-open once the cooldown has elapsed."""
        if self.state == STATE_OPEN:
            if now >= self.opened_at_s + BREAKER_COOLDOWN_S:
                self.state = STATE_HALF_OPEN
                self.half_open_count += 1
                self._probe_ok = 0
                return True
            return False
        return True

    # -- observations --------------------------------------------------------

    def record(self, ok: bool, now: float) -> None:
        """Fold one region access outcome (observed at ``now``) in."""
        if self.state == STATE_OPEN:
            # A request that started before the trip may complete after
            # it; its observations are stale — the breaker already acted.
            return
        if self.state == STATE_HALF_OPEN:
            if not ok:
                self._trip(now)
            else:
                self._probe_ok += 1
                if self._probe_ok >= BREAKER_PROBE_SUCCESSES:
                    self._close()
            return
        if len(self._outcomes) == self._outcomes.maxlen and not self._outcomes[0]:
            self._window_failures -= 1
        self._outcomes.append(ok)
        if not ok:
            self._window_failures += 1
            if self._window_failures >= BREAKER_FAILURE_THRESHOLD:
                self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = STATE_OPEN
        self.opened_at_s = float(now)
        self.open_count += 1
        self._outcomes.clear()
        self._window_failures = 0
        self._probe_ok = 0

    def _close(self) -> None:
        self.state = STATE_CLOSED
        self.close_count += 1
        self._outcomes.clear()
        self._window_failures = 0
        self._probe_ok = 0


class BreakerBoard:
    """All region breakers of one index, plus the chunk -> region map."""

    def __init__(self, n_chunks: int, region_size: int):
        if n_chunks < 1:
            raise ValueError("index must hold at least one chunk")
        if region_size < 1:
            raise ValueError("region size must be positive")
        self.n_chunks = int(n_chunks)
        self.region_size = int(region_size)
        self.n_regions = (n_chunks + region_size - 1) // region_size
        self.breakers: List[RegionBreaker] = [
            RegionBreaker() for _ in range(self.n_regions)
        ]

    def region_of(self, chunk_id: int) -> int:
        """Region index of a chunk (contiguous blocks of ``region_size``)."""
        if not 0 <= chunk_id < self.n_chunks:
            raise ValueError(f"chunk {chunk_id} out of range")
        return chunk_id // self.region_size

    def blocked_regions(self, now: float) -> FrozenSet[int]:
        """Regions whose breaker refuses access at ``now`` (this also
        advances any cooled-down breaker to half-open)."""
        return frozenset(
            region
            for region, breaker in enumerate(self.breakers)
            if not breaker.allow(now)
        )

    def observe_trace(self, trace: SearchTrace, now: float) -> None:
        """Fold one finished request's trace into the breakers.

        A skipped visit with an injected failure kind counts as a region
        failure; a processed visit counts as a success (retried-then-
        successful reads still delivered the chunk).  Breaker-caused
        skips are the board's own output and are ignored.
        """
        faults = trace.faults
        for position, chunk_id in enumerate(trace.chunk_ids):
            mark = faults.get(position)
            if mark is None:
                ok = True
            elif mark[1] == BREAKER_OPEN:
                continue
            else:
                skipped, fault, _ = mark
                ok = not (skipped and fault in FAILURE_KINDS)
            self.breakers[chunk_id // self.region_size].record(ok, now)

    # -- reporting -----------------------------------------------------------

    def state_counts(self) -> Dict[str, int]:
        """How many regions are currently closed / open / half-open."""
        counts = {STATE_CLOSED: 0, STATE_OPEN: 0, STATE_HALF_OPEN: 0}
        for breaker in self.breakers:
            counts[breaker.state] += 1
        return counts

    def transition_counts(self) -> Dict[str, int]:
        """Cumulative state transitions over the whole run.

        ``opened`` counts closed/half-open -> open trips, ``half_opened``
        counts cooldown expiries (open -> half-open), ``closed`` counts
        half-open -> closed recoveries.  Unlike :meth:`state_counts`
        (the final census) these expose the *path* the breakers took,
        which is what makes failover behaviour observable in sweep
        output: a region that tripped, cooled down and recovered leaves
        ``opened == half_opened == closed == 1`` even though its final
        state is indistinguishable from never having tripped.
        """
        return {
            "opened": sum(b.open_count for b in self.breakers),
            "half_opened": sum(b.half_open_count for b in self.breakers),
            "closed": sum(b.close_count for b in self.breakers),
        }

    @property
    def total_opens(self) -> int:
        """Times any region breaker tripped over the run."""
        return sum(breaker.open_count for breaker in self.breakers)


class BreakerGuardedInjector:
    """Fault-injector facade that short-circuits blocked regions.

    Wraps the searcher-facing :class:`~repro.faults.injector.FaultInjector`
    surface (its two methods): chunks in ``blocked_regions`` get
    :data:`BREAKER_SKIP_OUTCOME` without consulting the inner injector —
    no retry ladder, no backoff, no I/O charge; all other chunks pass
    through unchanged (or cleanly, when no injector is configured).

    One instance is built for each request that starts while a region is
    blocked, freezing the breaker decision for that request — the
    searcher then needs no knowledge of breakers at all (a request with
    no region blocked gets the inner injector itself).
    """

    def __init__(
        self,
        inner: Optional[FaultInjector],
        board: BreakerBoard,
        blocked_regions: FrozenSet[int],
    ):
        self._inner = inner
        self._board = board
        self._blocked = blocked_regions

    def outcome_table(self, query_id: int, n_chunks: int) -> OutcomeTable:
        """The inner injector's table (all clean without one) with every
        chunk of a blocked region overwritten by the skip."""
        if self._inner is None:
            table = [OK_OUTCOME] * n_chunks
        else:
            table = self._inner.outcome_table(query_id, n_chunks)
        size = self._board.region_size
        for region in self._blocked:  # the last region may be short
            start = region * size
            stop = min(start + size, n_chunks)
            table[start:stop] = [BREAKER_SKIP_OUTCOME] * (stop - start)
        return table

    def outcome(
        self,
        query_id: int,
        chunk_id: int,
        page_count: int,
        readable: bool = True,
    ) -> ChunkFaultOutcome:
        """Per-(query, chunk) decision for what :meth:`outcome_table` left
        open: a ``None`` entry, or a chunk whose real read failed.  The table
        decides every chunk of a blocked region, so the region is tested
        only for an unreadable chunk, where the breaker skip wins over the
        failed read."""
        if not readable and self._board.region_of(chunk_id) in self._blocked:
            return BREAKER_SKIP_OUTCOME
        if self._inner is None:
            return OK_OUTCOME
        return self._inner.outcome(query_id, chunk_id, page_count, readable=readable)
