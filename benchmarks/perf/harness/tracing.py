"""In-memory spans around the calls into each layer.

A span is ``(name, start, end, parent, query)``: ``parent`` is the index
of the span that was open when this one began (-1 for a root) and
``query`` identifies the request all spans of one operation share.
Spans are kept in a list and written out once, when the benchmark ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (children may touch or overlap; the
covered part is the length of their union, clipped to the parent).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    query: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; nesting follows the order of begin/end calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []  # indices of the spans still open

    @contextmanager
    def span(self, name: str, query: int = -1) -> Iterator[None]:
        """Time the enclosed block as a child of the innermost open span."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        # Reserve the slot now so children recorded meanwhile point at it.
        self.spans.append(Span(name, 0.0, 0.0, parent, query))
        start = time.perf_counter()
        self._open.append(index)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, query)

    def record(self, name: str, start: float, end: float, query: int = -1) -> None:
        """Add an already-timed span as a child of the innermost open span
        (the proxies time their own call and report it here)."""
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, start, end, parent, query))

    def write(self, path: str) -> None:
        """Dump the spans as JSON, times relative to the first start."""
        origin = min((s.start for s in self.spans), default=0.0)
        rows = [
            {
                "name": s.name,
                "start_s": s.start - origin,
                "end_s": s.end - origin,
                "parent": s.parent,
                "query": s.query,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": rows}, out)


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def total_by_name(spans: Sequence[Span], values: Sequence[float]) -> Dict[str, float]:
    """Sum ``values`` (durations or self times, parallel to ``spans``)
    per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span, value in zip(spans, values):
        totals[span.name] += value
    return dict(totals)
