"""Deadline propagation: remaining budget -> per-query stop rule.

The paper's knob — stop after ``n`` chunks, after a time budget, or at
the completion proof — is turned *statically* by the experiments.  Under
traffic it must be turned per request: by the time a request reaches a
worker it has already spent part of its deadline queueing, and only the
*remainder* may be spent searching.  :func:`propagated_stop_rule`
performs that translation, composing (via
:class:`~repro.core.stop_rules.FirstOf`):

* :func:`deadline_rule`, a :class:`~repro.core.stop_rules.DeadlineBudget`
  on the remaining seconds — the SLO envelope, reporting the distinct
  ``deadline(...)`` stop reason, and all a sharded sub-request gets; and
* a :class:`~repro.core.stop_rules.MaxChunks` at the adaptive
  controller's current chunk budget — the service-wide quality knob.

A request whose deadline has already expired in the queue still runs: a
chunk is the granule of the search, so the cheapest legal answer is a
one-chunk scan under an epsilon deadline budget.  "Degraded but valid"
beats an error page — the whole premise of the quality/time trade-off.
"""

from __future__ import annotations

from ..core.stop_rules import DeadlineBudget, FirstOf, MaxChunks, StopRule

__all__ = ["EXPIRED_BUDGET_S", "deadline_rule", "propagated_stop_rule"]

#: Budget handed to a request that is already past its deadline when it
#: reaches a worker: small enough that the DeadlineBudget rule fires
#: right after the first chunk, large enough to be a valid rule.
EXPIRED_BUDGET_S = 1e-9


def deadline_rule(remaining_s: float) -> DeadlineBudget:
    """The time budget of a search that starts ``remaining_s`` seconds
    before its request's deadline (zero or negative: expired in queue)."""
    return DeadlineBudget(remaining_s if remaining_s > 0.0 else EXPIRED_BUDGET_S)


def propagated_stop_rule(
    remaining_s: float, chunk_budget: int, n_chunks: int
) -> StopRule:
    """Build the stop rule for one request given its remaining deadline.

    Parameters
    ----------
    remaining_s:
        Seconds left until the request's absolute deadline at the moment
        its search starts (may be zero or negative: expired in queue).
    chunk_budget:
        The adaptive controller's current default chunk budget
        (0 = unbounded, i.e. the whole index).
    n_chunks:
        Chunks in the index, used to skip a vacuous ``MaxChunks``.
    """
    if n_chunks < 1:
        raise ValueError(f"index must hold at least one chunk, got {n_chunks}")
    if chunk_budget < 0:
        raise ValueError(f"chunk budget cannot be negative, got {chunk_budget}")
    budget = deadline_rule(remaining_s)
    if 0 < chunk_budget < n_chunks:
        return FirstOf([budget, MaxChunks(chunk_budget)])
    return budget
