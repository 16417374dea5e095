"""Test-side builder of search traces from chosen events.

The engine writes a :class:`~repro.core.trace.SearchTrace`'s columns
itself; a test that needs a trace of given events builds it here, one
event at a time, in rank order.

Importable from any test module (pytest puts ``tests/`` on the path when it
loads ``tests/conftest.py``): ``from traces import append_event, trace_of``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.trace import SearchTrace, TraceEvent

#: ``(skipped, fault, retries)`` of a clean visit: never stored.
_CLEAN = (False, "none", 0)


def append_event(trace: SearchTrace, event: TraceEvent) -> None:
    """Log ``event`` as the trace's next visit; its rank must be next."""
    if event.rank != len(trace.chunk_ids) + 1:
        raise ValueError(
            "first trace event must have rank 1"
            if not trace.chunk_ids
            else "trace events must arrive in rank order"
        )
    mark = (event.skipped, event.fault, event.retries)
    if mark != _CLEAN:
        trace.faults[len(trace.chunk_ids)] = mark
    trace.chunk_ids.append(event.chunk_id)
    trace.elapsed.append(event.elapsed_s)
    trace.n_descriptors.append(event.n_descriptors)
    trace.neighbors_found.append(event.neighbors_found)
    trace.kth_distance.append(event.kth_distance)
    trace.true_matches.append(event.true_matches)
    trace._events = None


def trace_of(events: Iterable[TraceEvent], start_elapsed_s: float = 0.0) -> SearchTrace:
    """A trace starting at ``start_elapsed_s`` with ``events`` logged."""
    trace = SearchTrace(start_elapsed_s=start_elapsed_s)
    for event in events:
        append_event(trace, event)
    return trace
