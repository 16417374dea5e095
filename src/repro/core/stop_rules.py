"""Stop rules for the approximate chunk search.

Section 4.3: "The search might simply stop once n chunks have been
processed or when a time threshold has been passed.  If the search is asked
to go to completion, however, it stops when k neighbors have been found and
when the minimum distance to the next chunk is greater than the current
distance to the k-th neighbor."

Each rule inspects a :class:`SearchProgress` snapshot after a chunk has
been processed and returns a reason string when the search should stop, or
``None`` to continue.  Each also declares its :attr:`StopRule.caps`, the
chunk count and elapsed time below which it cannot fire, so the searcher
builds a snapshot and asks only at a visit that reaches one of them.  The
completion proof is not a rule here — it is a correctness guarantee
applied by the searcher itself — but :class:`ExactCompletion` (caps at
infinity: never asked) exists as an explicit "no early stop" marker.

The paper's "second lesson" (section 5.7) — elapsed time is a more natural
stop rule than a chunk count, because variably sized chunks make the chunk
count a poor proxy for time — is exercised by the stop-rule ablation
benchmark.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "SearchProgress",
    "StopRule",
    "ExactCompletion",
    "MaxChunks",
    "TimeBudget",
    "DeadlineBudget",
    "FirstOf",
]


class SearchProgress(NamedTuple):
    """Snapshot handed to stop rules after a processed chunk: a named
    tuple, built only at a visit that reaches the rule's caps.

    Attributes
    ----------
    chunks_read:
        Chunks processed so far (>= 1 when rules are consulted).
    elapsed_s:
        Simulated seconds elapsed when the last chunk completed.
    neighbors_found:
        Current size of the neighbor set (== k once warm).
    kth_distance:
        Distance to the current k-th neighbor (inf while not full).
    remaining_lower_bound:
        Smallest possible distance from the query to any descriptor in any
        *unread* chunk (min over remaining chunks of
        ``d(query, centroid) - radius``); inf when no chunks remain.
    """

    chunks_read: int
    elapsed_s: float
    neighbors_found: int
    kth_distance: float
    remaining_lower_bound: float


class StopRule:
    """Base class; subclasses override :meth:`check` and, to be asked
    less often, :attr:`caps`."""

    @property
    def caps(self) -> Tuple[float, float]:
        """``(chunks, seconds)``: :meth:`check` returns ``None`` for every
        snapshot with ``chunks_read`` below the first and ``elapsed_s``
        below the second, so the searcher asks only at a visit reaching
        one.  Here ``(0, 0)``, asked at every visit; a subclass that
        overrides :meth:`check` declares its own or keeps these."""
        return (0, 0.0)

    def check(self, progress: SearchProgress) -> Optional[str]:
        """Return a stop reason, or ``None`` to keep scanning."""
        raise NotImplementedError


class ExactCompletion(StopRule):
    """Never stop early; run until the completion proof fires.

    The searcher always applies the completion proof, so this rule simply
    declines to stop.  It exists so that "run to completion" is an explicit
    choice at call sites.
    """

    @property
    def caps(self) -> Tuple[float, float]:
        return (math.inf, math.inf)

    def check(self, progress: SearchProgress) -> Optional[str]:
        return None

    def __repr__(self) -> str:
        return "ExactCompletion()"


class MaxChunks(StopRule):
    """Stop after a fixed number of chunks (the "simple and natural stop
    rule" of section 1: process only the n nearest chunks)."""

    def __init__(self, n_chunks: int):
        if n_chunks <= 0:
            raise ValueError(f"n_chunks must be positive, got {n_chunks}")
        self.n_chunks = int(n_chunks)

    @property
    def caps(self) -> Tuple[float, float]:
        return (self.n_chunks, math.inf)

    def check(self, progress: SearchProgress) -> Optional[str]:
        if progress.chunks_read >= self.n_chunks:
            return f"max-chunks({self.n_chunks})"
        return None

    def __repr__(self) -> str:
        return f"MaxChunks({self.n_chunks})"


class TimeBudget(StopRule):
    """Stop once the clock passes a budget (seconds).

    Because a chunk is the granule of the search, the rule fires *after*
    the chunk whose completion crossed the budget — the same semantics as
    the paper's "when a time threshold has been passed" — so at least one
    chunk is always scanned and the top-k is valid, never empty.  The
    stop reason reads ``<label>(<budget>s)``.
    """

    label = "time-budget"

    def __init__(self, budget_s: float):
        if budget_s <= 0 or math.isnan(budget_s):
            raise ValueError(f"budget must be positive, got {budget_s}")
        self.budget_s = float(budget_s)

    @property
    def caps(self) -> Tuple[float, float]:
        return (math.inf, self.budget_s)

    def check(self, progress: SearchProgress) -> Optional[str]:
        if progress.elapsed_s >= self.budget_s:
            return f"{self.label}({self.budget_s:g}s)"
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.budget_s!r})"


class DeadlineBudget(TimeBudget):
    """:class:`TimeBudget` under the ``deadline`` label, on the seconds a
    request has left of its deadline when its search starts
    (:func:`~repro.service.deadline.propagated_stop_rule`): its reason
    tells a result trimmed to meet an SLO from one trimmed by a
    configured time budget.
    """

    label = "deadline"


class FirstOf(StopRule):
    """Composite: stop as soon as any member rule fires."""

    def __init__(self, rules: Sequence[StopRule]):
        flattened = []
        for rule in rules:
            if isinstance(rule, FirstOf):
                flattened.extend(rule.rules)
            else:
                flattened.append(rule)
        if not flattened:
            raise ValueError("FirstOf needs at least one rule")
        self.rules = list(flattened)

    @property
    def caps(self) -> Tuple[float, float]:
        """The members' minima: no member fires below them."""
        caps = [rule.caps for rule in self.rules]
        return (min(c for c, _ in caps), min(t for _, t in caps))

    def check(self, progress: SearchProgress) -> Optional[str]:
        for rule in self.rules:
            reason = rule.check(progress)
            if reason is not None:
                return reason
        return None

    def __repr__(self) -> str:
        return f"FirstOf({self.rules!r})"
