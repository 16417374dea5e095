"""CLK001 — simulated-clock discipline.

Layers whose cost is charged by the :mod:`repro.simio` cost model
(``core``, ``simio``, ``storage``, ``chunking``, ``srtree``, ``faults``,
``service``) must never touch the wall clock: a stray
``time.perf_counter()`` in a simulated path silently mixes
hardware-dependent noise into the paper's deterministic time-to-quality
curves, and a ``time.sleep()`` makes the host wait out time the cost
model only simulates.  Wall-clock calls are permitted only behind an
explicit inline ``# repro-lint: disable=CLK001`` at a build/benchmark
measurement site.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator

from ..config import SIMULATED_LAYERS
from ..diagnostics import Diagnostic
from .base import FileContext, Rule

__all__ = ["WallClockRule"]

#: Fully-resolved call targets that read, or wait on, the wall clock.
WALL_CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "time.sleep",
    }
)


class WallClockRule(Rule):
    """Query-time cost in core/simio/storage/chunking/srtree/faults/
    service is *simulated*: the disk and CPU cost model charges every
    chunk, which is what makes the paper's time-to-quality curves
    deterministic and hardware-independent.  One stray
    time.perf_counter() in those layers mixes real hardware noise
    into the curves without failing any test, and host seconds can
    only be mixed with simulated seconds (or a simulated duration
    slept out with time.sleep()) where such a call exists.  No file is
    exempt; build-time measurement sites carry inline disable comments
    so new calls are still caught."""

    id = "CLK001"
    summary = (
        "wall-clock call (time.time/perf_counter/datetime.now/sleep/...) in "
        "a simulated-cost layer; charge the cost model, or waive a build timer"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.layer not in SIMULATED_LAYERS:
            return
        for node, target in ctx.calls:
            if target in WALL_CLOCK_CALLS:
                yield ctx.diagnostic(
                    node,
                    self.id,
                    f"call to {target}() in simulated layer '{ctx.layer}'; "
                    f"simulated paths must take time from the cost model",
                )
