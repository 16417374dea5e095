"""The columnar ``SearchTrace``: no ``TraceEvent`` is built until
``.events`` is read, and every summary equals its definition over the
list of events.

The reference definitions below are the summaries as they were written
when a trace *was* a list of ``TraceEvent`` rows.  The property draws
columns the way the engine writes them — clean visits, retried and
spiked reads, skips, breaker-open skips, a fault mark that is clean after
all — plus the empty trace, and compares each summary, the breaker feed
and ``SearchResult.holds_under_deadline`` with its reference over the
materialised events.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core import search as search_module
from repro.core import trace as trace_module
from repro.core.chunk_index import build_chunk_index
from repro.core.ground_truth import exact_knn_batch
from repro.core.search import ChunkSearcher, SearchResult
from repro.core.trace import SearchTrace, TraceEvent
from repro.faults.plan import FAILURE_KINDS, FAULT_NONE, FAULT_SPIKE
from repro.service.breaker import BREAKER_OPEN, BreakerBoard
from traces import append_event

N_CHUNKS = 16


class TestLazyEvents:
    def test_a_batch_builds_events_only_when_read(self, small_synthetic, monkeypatch):
        built = []

        class CountingEvent(TraceEvent):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                built.append(None)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(trace_module, "TraceEvent", CountingEvent)
        # Wherever the engine would name the class, it gets the stub too.
        monkeypatch.setattr(search_module, "TraceEvent", CountingEvent, raising=False)
        result = SRTreeChunker(leaf_capacity=40).form_chunks(small_synthetic)
        searcher = ChunkSearcher(build_chunk_index(result.retained, result.chunk_set))
        rng = np.random.default_rng(3)
        rows = rng.choice(len(small_synthetic), size=64, replace=False)
        queries = small_synthetic.vectors[rows].astype(np.float64)
        queries += rng.normal(0.0, 0.01, queries.shape)
        truth = list(exact_knn_batch(small_synthetic, queries, 10))
        batch = searcher.search_batch(queries, k=10, true_neighbor_ids=truth)
        for one in batch:
            one.chunks_read, one.trace.coverage_fraction, one.holds_under_deadline(1.0)
            one.trace.time_to_find(10), one.trace.total_retries
        assert built == []

        for one in batch:
            before = len(built)
            events = one.trace.events
            assert len(built) - before == len(one.trace) == len(events) > 0
            assert one.trace.events is events
        assert len(built) == sum(len(one.trace) for one in batch)


# -- the list-of-events definitions -------------------------------------------


def first_with(events, n_neighbors):
    for event in events:
        if event.true_matches < 0:
            raise ValueError("trace has no ground-truth match counts")
        if event.true_matches >= n_neighbors:
            return event
    return None


def chunks_to_find(events, n_neighbors):
    if n_neighbors <= 0:
        return 0.0
    event = first_with(events, n_neighbors)
    return math.inf if event is None else float(event.rank)


def time_to_find(start, events, n_neighbors):
    if n_neighbors <= 0:
        return start
    event = first_with(events, n_neighbors)
    return math.inf if event is None else event.elapsed_s


def summaries(start, events):
    scanned = int(sum(e.n_descriptors for e in events if not e.skipped))
    skipped = int(sum(e.n_descriptors for e in events if e.skipped))
    return {
        "final_elapsed_s": events[-1].elapsed_s if events else start,
        "chunks_read": sum(1 for e in events if not e.skipped),
        "chunks_skipped": sum(1 for e in events if e.skipped),
        "descriptors_scanned": scanned,
        "descriptors_skipped": skipped,
        "coverage_fraction": (
            scanned / (scanned + skipped) if scanned + skipped else 1.0
        ),
        "total_retries": int(sum(e.retries for e in events)),
    }


def observe(board, events, now):
    for event in events:
        if event.fault == BREAKER_OPEN:
            continue
        ok = not (event.skipped and event.fault in FAILURE_KINDS)
        board.breakers[board.region_of(event.chunk_id)].record(ok, now)


def holds_under_deadline(result, events, budget_s):
    if result.stop_reason == "completed":
        return len(events) < 2 or events[-2].elapsed_s < budget_s
    if result.stop_reason == "exhausted":
        return result.trace.final_elapsed_s < budget_s
    return False


def outcome(function, *args):
    """``function(*args)``, or the ``ValueError`` it raises, by message."""
    try:
        return function(*args)
    except ValueError as error:
        return ("ValueError", str(error))


# -- the property ---------------------------------------------------------------

FAULT_MARKS = st.one_of(
    # An outcome other than the shared clean one can still be clean.
    st.just((False, FAULT_NONE, 0)),
    # Read at last, or read slowly.
    st.tuples(
        st.just(False), st.sampled_from((FAULT_SPIKE,) + FAILURE_KINDS),
        st.integers(0, 2),
    ),
    # Abandoned after its retries.
    st.tuples(st.just(True), st.sampled_from(FAILURE_KINDS), st.integers(0, 2)),
    # Refused by an open breaker: never attempted.
    st.just((True, BREAKER_OPEN, 0)),
)


@st.composite
def traces(draw):
    n = draw(st.integers(0, 12))
    start = draw(st.floats(0.0, 1.0))
    trace = SearchTrace(start_elapsed_s=start)
    steps = draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
    trace.elapsed.extend(np.cumsum([start] + steps)[1:].tolist())
    trace.chunk_ids.extend(
        draw(st.lists(st.integers(0, N_CHUNKS - 1), min_size=n, max_size=n))
    )
    trace.n_descriptors.extend(
        draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    )
    trace.neighbors_found.extend(
        draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    )
    trace.kth_distance.extend(
        draw(st.lists(st.floats(0.0, 9.0) | st.just(math.inf), min_size=n, max_size=n))
    )
    trace.true_matches.extend(
        draw(st.lists(st.integers(-1, 5), min_size=n, max_size=n))
    )
    for position in sorted(draw(st.sets(st.integers(0, max(0, n - 1)))) if n else []):
        trace.faults[position] = draw(FAULT_MARKS)
    return trace


class TestSummariesEqualTheirEventDefinitions:
    @settings(max_examples=3 * settings.default.max_examples, deadline=None)
    @given(trace=traces(), budget=st.floats(0.0, 8.0))
    def test_every_summary(self, trace, budget):
        # Summaries first: none of them may need the events.
        got = {name: getattr(trace, name) for name in summaries(0.0, [])}
        finds = [
            (outcome(trace.chunks_to_find, n), outcome(trace.time_to_find, n))
            for n in range(-1, 7)
        ]
        board = BreakerBoard(n_chunks=N_CHUNKS, region_size=4)
        board.observe_trace(trace, now=1.0)
        results = [
            SearchResult(neighbors=[], trace=trace, stop_reason=reason, completed=False)
            for reason in ("completed", "exhausted", "max-chunks(3)")
        ]
        holds = [r.holds_under_deadline(budget) for r in results]

        events = trace.events
        assert len(events) == len(trace)
        assert [e.rank for e in events] == list(range(1, len(trace) + 1))
        start = trace.start_elapsed_s
        assert got == summaries(start, events)
        assert finds == [
            (
                outcome(chunks_to_find, events, n),
                outcome(time_to_find, start, events, n),
            )
            for n in range(-1, 7)
        ]
        reference = BreakerBoard(n_chunks=N_CHUNKS, region_size=4)
        observe(reference, events, now=1.0)
        assert [vars(b) for b in board.breakers] == [
            vars(b) for b in reference.breakers
        ]
        assert holds == [holds_under_deadline(r, events, budget) for r in results]

    @given(trace=traces())
    def test_appending_the_events_rebuilds_an_equal_trace(self, trace):
        again = SearchTrace(start_elapsed_s=trace.start_elapsed_s)
        for event in trace.events:
            append_event(again, event)
        assert again == trace
        assert again.events == trace.events
        assert summaries(0.0, again.events) == summaries(0.0, trace.events)


def test_the_empty_trace():
    trace = SearchTrace(start_elapsed_s=0.25)
    assert trace.events == []
    assert summaries(0.25, []) == {
        name: getattr(trace, name) for name in summaries(0.0, [])
    }
    assert trace.time_to_find(3) == math.inf
    assert trace.chunks_to_find(0) == 0.0


def test_append_invalidates_the_built_events():
    trace = SearchTrace(start_elapsed_s=0.0)
    first = TraceEvent(0, 1, 0.1, 4, 1, 2.0, 0)
    append_event(trace, first)
    assert trace.events == [first]
    second = TraceEvent(3, 2, 0.2, 4, 2, 1.0, 1, True, "corrupt", 2)
    append_event(trace, second)
    assert trace.events == [first, second]
    assert trace.faults == {1: (True, "corrupt", 2)}
    with pytest.raises(ValueError, match="rank order"):
        append_event(trace, first)
