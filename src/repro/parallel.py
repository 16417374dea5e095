"""Thread-pool execution helpers for wall-clock parallel workloads.

The search engine's deterministic *simulated* timing never depends on how
the host machine schedules work — each query is charged the paper-model
cost on its own :class:`~repro.simio.pipeline.PipelineSimulator`
timeline.  Real
wall-clock runs, however, benefit from parallelism: the distance kernels
are NumPy calls that release the GIL, so a plain thread pool scales chunk
scans across cores without any serialization of the descriptor matrices.

These helpers are deliberately tiny: shard a work list, run a function
over the shards in a pool, preserve order.  Anything fancier (processes,
async, work stealing) can layer on top later without touching callers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = ["default_workers", "resolve_workers", "shard", "run_parallel"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_workers() -> int:
    """A sane worker count for CPU-bound NumPy work: one per core, capped
    so tiny containers and huge hosts both behave."""
    return max(1, min(32, os.cpu_count() or 1))


def resolve_workers(workers: Optional[int], n_items: int) -> int:
    """Clamp a requested worker count to the available work.

    ``None`` or 0 means "pick for me" (:func:`default_workers`); the result
    never exceeds ``n_items`` so no thread is created just to idle.
    """
    if workers is not None and workers < 0:
        raise ValueError(f"worker count cannot be negative, got {workers}")
    resolved = default_workers() if not workers else int(workers)
    return max(1, min(resolved, n_items)) if n_items else 1


def shard(items: Sequence[_T], n_shards: int) -> List[List[_T]]:
    """Split ``items`` into at most ``n_shards`` contiguous, near-equal
    shards (empty shards are dropped, order is preserved)."""
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    n = len(items)
    n_shards = min(n_shards, n) if n else 1
    out: List[List[_T]] = []
    start = 0
    for i in range(n_shards):
        # Integer split: remaining items spread over remaining shards.
        stop = start + -(-(n - start) // (n_shards - i))
        if stop > start:
            out.append(list(items[start:stop]))
        start = stop
    return out


def run_parallel(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    workers: Optional[int] = None,
) -> List[_R]:
    """Apply ``fn`` to every item, in a thread pool, preserving order.

    With one worker (or zero/one items) the pool is skipped entirely so
    sequential callers pay no executor overhead and tracebacks stay flat.
    """
    items = list(items)
    n_workers = resolve_workers(workers, len(items))
    if n_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))
