"""The fault draws and their classification as they stood before draws
were taken a window of queries at a time, kept verbatim as a
differential oracle.

:func:`keyed_uniforms` is ``repro.faults.draws.keyed_uniforms`` when it
drew one query's range of chunk ids (the last key integer) per call, with
its one-key special cases; :func:`classify` is ``FaultPlan.classify`` when
it took a row of draws and named each attempt's kind with ``_kind``'s
``u < edge`` chain.  The mix primitives they call (``_words``, ``_pool``,
the hash constants) are the shipped ones, unchanged.
``test_draws.py`` and ``test_injector_table.py`` compare the two.

:func:`uniforms` and :func:`chunk_outcome` are ``FaultPlan.uniforms`` and
``FaultPlan.chunk_outcome`` as they stood when the plan drew one access's
row per call: the per-key answer every injector outcome must equal
(``test_plan.py``, ``test_injector.py``).

:func:`sub_request` is ``ShardFaultPlan.sub_request`` as it stood when a
sharded run drew one sub-request attempt per call, before the run drew
all of its attempts in one ``ShardFaultPlan.sub_requests`` call
(``test_draws.py``, ``test_shard_plan.py``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.faults import plan as plan_module
from repro.faults.draws import (
    _INIT_B,
    _MASK32,
    _MULT_B,
    _POOL_SIZE,
    _Word,
    _hash_constants,
    _hashmix,
    _pool,
    _words,
    key_uniforms,
)
from repro.faults.shard_plan import SHARD_OK, ShardFaultPlan, ShardSubFault
from repro.faults.plan import (
    FAILURE_KINDS,
    FAULT_CORRUPT,
    FAULT_NONE,
    FAULT_READ_ERROR,
    FAULT_SPIKE,
    FAULT_TRUNCATE,
    OK_OUTCOME,
    SPIKE_S,
    ChunkFaultOutcome,
    FaultPlan,
)

_PERSISTENT_KINDS = (FAULT_CORRUPT, FAULT_TRUNCATE)


def _uniforms(pool: List[_Word], n: int) -> np.ndarray:
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], constants) for i in range(2 * n)]
    if isinstance(words[0], int):
        state = np.array([words], dtype="<u4")
    else:
        state = np.stack(words, axis=1).astype("<u4", copy=False)
    return state.view("<u8").astype(np.float64) * 2.0**-64


def _last_words(start: int, stop: int, width: int) -> List[_Word]:
    if stop - start == 1:
        return list(_words(start))
    ids = np.uint64(start) + np.arange(stop - start, dtype=np.uint64)
    return [
        ((ids >> np.uint64(32 * j)) & np.uint64(_MASK32)).astype(np.uint32)
        for j in range(width)
    ]


def keyed_uniforms(prefix: Sequence[int], start: int, stop: int, n: int) -> np.ndarray:
    """``(stop - start, n)``: row ``i`` is the key ``(*prefix, start + i)``."""
    head: List[_Word] = [w for value in prefix for w in _words(value)]
    if start < 0:
        raise ValueError("expected non-negative integer")
    out = np.empty((max(0, stop - start), n), dtype=np.float64)
    low = start
    while low < stop:
        width = len(_words(low))
        high = min(stop, 1 << (32 * width))
        pool = _pool(head + _last_words(low, high, width))
        out[low - start : high - start] = _uniforms(pool, n)
        low = high
    return out


def _kind(plan: FaultPlan, u: float) -> str:
    edge = plan.read_error_rate
    if u < edge:
        return FAULT_READ_ERROR
    edge += plan.corrupt_rate
    if u < edge:
        return FAULT_CORRUPT
    edge += plan.truncate_rate
    if u < edge:
        return FAULT_TRUNCATE
    edge += plan.spike_rate
    if u < edge:
        return FAULT_SPIKE
    return FAULT_NONE


def classify(plan: FaultPlan, draws: np.ndarray, attempt_io_s: float) -> ChunkFaultOutcome:
    """The outcome of one readable access from its row of draws."""
    us = draws.tolist()
    budget = len(us)
    extra = 0.0
    kind = FAULT_NONE
    persistent = False
    for attempt in range(budget):
        drawn = kind if persistent else _kind(plan, us[attempt])
        if drawn in _PERSISTENT_KINDS:
            persistent = True
        if kind == FAULT_NONE and drawn in FAILURE_KINDS:
            kind = drawn
        if persistent or drawn == FAULT_READ_ERROR:
            extra += attempt_io_s
            if attempt < budget - 1:
                extra += plan.backoff_delay_s(attempt)
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


def uniforms(plan: FaultPlan, stream: int, a: int, b: int, n: int) -> np.ndarray:
    """``n`` uniforms in [0, 1) (float64) for one keyed decision site.

    The key is ``(seed, stream, a, b)``; results are independent of
    call order and of every other key — the property that lets a
    cohort of queries reproduce each single query's faults exactly.
    """
    return key_uniforms((plan.seed, stream, a, b), n)


def chunk_outcome(
    plan: FaultPlan,
    query_id: int,
    chunk_id: int,
    attempt_io_s: float,
    readable: bool = True,
) -> ChunkFaultOutcome:
    """Resolve the fault behaviour of one ``(query, chunk)`` access.

    Parameters
    ----------
    query_id, chunk_id:
        The decision key (must be non-negative).
    attempt_io_s:
        Simulated cost of one (uncached) read attempt of this chunk
        — failed attempts are charged at this rate.
    readable:
        Pass False when a *real* read of the chunk already failed
        (e.g. an actual :class:`~repro.storage.errors.CorruptFileError`):
        real damage is treated as persistent, so every attempt fails
        and the chunk is skipped with all retries charged.
    """
    if query_id < 0 or chunk_id < 0:
        raise ValueError("expected non-negative integer")
    if attempt_io_s < 0.0:
        raise ValueError("attempt cost cannot be negative")
    budget = plan_module.MAX_RETRIES + 1
    if not readable:
        extra = budget * attempt_io_s
        for retry in range(budget - 1):
            extra += plan.backoff_delay_s(retry)
        return ChunkFaultOutcome(
            ok=False,
            kind=FAULT_CORRUPT,
            attempts=budget,
            extra_io_s=extra,
            spiked=False,
        )
    if plan.is_null:
        return OK_OUTCOME
    draws = uniforms(
        plan, plan_module._STREAM_CHUNK, int(query_id), int(chunk_id), budget
    )
    return plan.classify(plan.kind_codes(draws).tolist(), attempt_io_s)


def sub_request(
    plan: ShardFaultPlan, query_index: int, partition_id: int, shard_id: int,
    attempt: int,
) -> ShardSubFault:
    """Fault decision for one sub-request attempt."""
    if min(query_index, partition_id, shard_id, attempt) < 0:
        raise ValueError("decision coordinates must be non-negative")
    if plan.error_rate == 0.0 and plan.straggler_rate == 0.0:
        return SHARD_OK
    (u,) = tuple(
        key_uniforms(
            (plan.seed, 0, int(query_index), int(partition_id), int(shard_id),
             int(attempt)),
            1,
        ).tolist()
    )
    if u < plan.error_rate:
        return ShardSubFault(failed=True, straggler=False)
    if u < plan.error_rate + plan.straggler_rate:
        return ShardSubFault(failed=False, straggler=True)
    return SHARD_OK
