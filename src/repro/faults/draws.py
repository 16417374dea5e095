"""Keyed uniform draws, equal bit for bit to numpy's ``SeedSequence``.

Every fault decision in this package is a pure function of an integer
key: ``numpy.random.SeedSequence(entropy=key).generate_state(n,
numpy.uint64) * 2**-64``, which :func:`key_uniforms` evaluates for one
key.  Building one ``SeedSequence`` per key costs ≈ 11 µs of Python, and a
query visits a hundred chunks.  :func:`keyed_uniforms` evaluates the same
entropy mix and state generation for a whole *range* of keys that share a
prefix and differ in their last integer (one query's chunk ids): one row
per key, one numpy ``uint32`` operation per step of the mix.  For a
single key it costs twice what numpy does, so one-key draws call numpy.

The algorithm is numpy's (``numpy/random/bit_generator.pyx``): the key's
integers become little-endian 32-bit words (``0`` is one zero word); the
first four words are hashed into a four-word pool, every pool word is
mixed with every other, words past the fourth are mixed into each pool
word, and the output words are hashes of the pool read cyclically, two
per ``uint64``.  The hash multipliers advance by a fixed sequence that
does not depend on the data, so all rows share them.  A word every row
shares (the prefix's, or the last integer of a one-row range) stays a
Python int, masked to 32 bits, until it meets a per-row column.
"""

from __future__ import annotations

import operator
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

__all__ = ["key_uniforms", "keyed_uniforms"]

#: One 32-bit word for every row: a shared Python int or a ``uint32`` column.
_Word = Union[int, np.ndarray]

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _words(value: int) -> List[int]:
    """One key integer as numpy encodes it: little-endian 32-bit words."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _wrap(value: _Word) -> _Word:
    """Reduce modulo 2**32 (``uint32`` columns wrap by themselves)."""
    return value & _MASK32 if isinstance(value, int) else value


def _hash_constants(init: int, mult: int) -> Iterator[Tuple[int, int]]:
    """The ``(xor, multiply)`` constants of successive hash calls."""
    h = init
    while True:
        xor = h
        h = (h * mult) & _MASK32
        yield xor, h


def _hashmix(value: _Word, constants: Iterator[Tuple[int, int]]) -> _Word:
    xor, mul = next(constants)
    value = _wrap((value ^ xor) * mul)
    return value ^ (value >> _XSHIFT)


def _mix(x: _Word, y: _Word) -> _Word:
    result = _wrap(_wrap(x * _MIX_MULT_L) - _wrap(y * _MIX_MULT_R))
    return result ^ (result >> _XSHIFT)


def _pool(entropy: List[_Word]) -> List[_Word]:
    """``SeedSequence.mix_entropy`` of one entropy word list."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else 0, constants)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    return pool


def _uniforms(pool: List[_Word], n: int) -> np.ndarray:
    """``generate_state(n, uint64) * 2**-64`` of every row: ``(rows, n)``
    float64.  Every pool word has met every entropy word, so the pool is
    all ints or all columns."""
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], constants) for i in range(2 * n)]
    if isinstance(words[0], int):
        state = np.array([words], dtype="<u4")
    else:
        state = np.stack(words, axis=1).astype("<u4", copy=False)
    return state.view("<u8").astype(np.float64) * 2.0**-64


def _last_words(start: int, stop: int, width: int) -> List[_Word]:
    """The ``width``-word encodings of ``start .. stop - 1``, as columns
    (as ints when the range is one key)."""
    if stop - start == 1:
        return list(_words(start))
    ids = np.uint64(start) + np.arange(stop - start, dtype=np.uint64)
    return [
        ((ids >> np.uint64(32 * j)) & np.uint64(_MASK32)).astype(np.uint32)
        for j in range(width)
    ]


def key_uniforms(key: Sequence[int], n: int) -> np.ndarray:
    """``(n,)`` float64 uniforms in [0, 1) of one key: numpy's
    ``SeedSequence`` itself (a negative integer is numpy's ``ValueError``)."""
    state = np.random.SeedSequence(entropy=key).generate_state(n, np.uint64)
    return state * 2.0**-64


def keyed_uniforms(prefix: Sequence[int], start: int, stop: int, n: int) -> np.ndarray:
    """``(stop - start, n)`` float64 uniforms in [0, 1), ``n >= 1``.

    Row ``i`` is bit-identical to ``numpy.random.SeedSequence(entropy=(
    *prefix, start + i)).generate_state(n, numpy.uint64) * 2**-64``: a
    pure function of its key, independent of the range it was drawn in.
    Every key integer must be non-negative (``ValueError``, as numpy); a
    range of more than one key must end at or below ``2**64``.
    """
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
