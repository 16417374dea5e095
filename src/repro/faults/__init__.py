"""Deterministic fault injection and degraded-execution support.

The paper trades quality for time via aggressive stop rules; this
package lets the same search trade quality for *fault tolerance*: a
seeded :class:`FaultPlan` decides, per ``(query, chunk)``, whether a
read fails, is corrupt, truncated, or merely slow, and the
:class:`FaultInjector` prices those decisions against the simulated disk
model so the searchers can retry with backoff, then skip and continue —
with every injected microsecond flowing through the simulated clock and
every skipped chunk accounted for in the result's coverage.

Everything is reproducible from the seed: same plan, same workload, same
quality-vs-fault-rate curve, regardless of execution engine or thread
count.
"""

from .crash_states import CrashState, InjectedCrash, Recording, record, seeded_crash_steps
from .injector import FaultInjector
from .shard_plan import SHARD_OK, ShardFaultPlan, ShardSubFault
from .plan import (
    FAILURE_KINDS,
    FAULT_CORRUPT,
    FAULT_NONE,
    FAULT_READ_ERROR,
    FAULT_SPIKE,
    FAULT_TRUNCATE,
    OK_OUTCOME,
    ChunkFaultOutcome,
    FaultPlan,
)

__all__ = [
    "Recording",
    "record",
    "CrashState",
    "InjectedCrash",
    "seeded_crash_steps",
    "FaultPlan",
    "ShardFaultPlan",
    "ShardSubFault",
    "SHARD_OK",
    "FaultInjector",
    "ChunkFaultOutcome",
    "OK_OUTCOME",
    "FAULT_NONE",
    "FAULT_SPIKE",
    "FAULT_READ_ERROR",
    "FAULT_CORRUPT",
    "FAULT_TRUNCATE",
    "FAILURE_KINDS",
]
