"""Keyed uniform draws, equal bit for bit to numpy's ``SeedSequence``.

Every fault decision in this package is a pure function of an integer
key: ``numpy.random.SeedSequence(entropy=key).generate_state(n,
numpy.uint64) * 2**-64``, which :func:`key_uniforms` evaluates for one
key.  :func:`keyed_uniforms` evaluates the same entropy mix and state
generation for a whole *grid* of keys that share a prefix and differ in
their last two integers (a window of queries x the chunk ids): one numpy
``uint32`` operation per step of the mix for every key at once, so the
fixed cost of the ≈ 160 operations is paid once per grid, not per query.
:func:`listed_uniforms` does the same for a *list* of keys that share a
prefix (a sharded run's sub-request attempts).  For a single key that
costs more than numpy does, so one-key draws call numpy.

The algorithm is numpy's (``numpy/random/bit_generator.pyx``): the key's
integers become little-endian 32-bit words (``0`` is one zero word); the
first four words are hashed into a four-word pool, every pool word is
mixed with every other, words past the fourth are mixed into each pool
word, and the output words are hashes of the pool read cyclically, two
per ``uint64``.  The hash multipliers advance by a fixed sequence that
does not depend on the data, so all keys share them.  A word every key
shares (the prefix's, an axis' high words) stays a Python int, masked to
32 bits, until it meets an axis' column.
"""

from __future__ import annotations

import operator
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

__all__ = ["key_uniforms", "keyed_uniforms", "listed_uniforms"]

#: One 32-bit word for every key: a shared Python int or a ``uint32`` array.
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
    """``generate_state(n, uint64) * 2**-64`` of every key: ``(*shape, n)``
    float64 for the keys' shape.  Every pool word has met every varying
    word, so each is a full array of that shape."""
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], constants) for i in range(2 * n)]
    state = np.stack(words, axis=-1).astype("<u4", copy=False)
    return state.view("<u8").astype(np.float64) * 2.0**-64


def _pieces(keys: range, shape: Tuple[int, int]) -> Iterator[Tuple[slice, List[_Word]]]:
    """``keys`` cut at every multiple of ``2**32``: each piece's place in
    ``keys`` and its words, the lowest (the only one that varies in a
    piece) a ``uint32`` array of ``shape``, the others shared ints."""
    low = keys.start
    while low < keys.stop:
        high = min(keys.stop, (low | _MASK32) + 1)
        first = low & _MASK32
        column = np.arange(first, first + high - low, dtype=np.uint32).reshape(shape)
        yield slice(low - keys.start, high - keys.start), [column] + _words(low)[1:]
        low = high


def key_uniforms(key: Sequence[int], n: int) -> np.ndarray:
    """``(n,)`` float64 uniforms in [0, 1) of one key: numpy's
    ``SeedSequence`` itself (a negative integer is numpy's ``ValueError``)."""
    state = np.random.SeedSequence(entropy=key).generate_state(n, np.uint64)
    return state * 2.0**-64


def keyed_uniforms(prefix: Sequence[int], rows: range, columns: range, n: int) -> np.ndarray:
    """``(len(rows), len(columns), n)`` float64 uniforms in [0, 1).

    Entry ``[i, j]`` is bit-identical to ``numpy.random.SeedSequence(
    entropy=(*prefix, rows[i], columns[j])).generate_state(n,
    numpy.uint64) * 2**-64``: a pure function of its key, independent of
    the grid it was drawn in.  ``rows`` and ``columns`` are ranges of
    consecutive integers; every key integer must be non-negative
    (``ValueError``, as numpy).  ``n = 0`` gives numpy's empty state.
    """
    head: List[_Word] = [w for value in prefix for w in _words(value)]
    if rows.start < 0 or columns.start < 0:
        raise ValueError("expected non-negative integer")
    out = np.empty((len(rows), len(columns), n), dtype=np.float64)
    if n == 0:
        return out
    for rows_at, row_words in _pieces(rows, (-1, 1)):
        for columns_at, column_words in _pieces(columns, (1, -1)):
            pool = _pool(head + row_words + column_words)
            out[rows_at, columns_at] = _uniforms(pool, n)
    return out


def listed_uniforms(prefix: Sequence[int], keys: np.ndarray, n: int) -> np.ndarray:
    """``(len(keys), n)`` float64 uniforms in [0, 1).

    Row ``i`` is bit-identical to ``numpy.random.SeedSequence(entropy=(
    *prefix, *keys[i])).generate_state(n, numpy.uint64) * 2**-64``.
    ``keys`` is a ``(m, c)`` integer array, ``c >= 1``, of non-negative
    integers below ``2**63`` (``ValueError`` otherwise).  An integer of
    ``2**32`` or more is two words, so the keys are hashed in one group per
    pattern of word counts.
    """
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] < 1 or keys.dtype.kind not in "iu":
        raise ValueError(f"keys must be an (m, c >= 1) integer array, got {keys.shape}")
    if keys.size and keys.min() < 0:
        raise ValueError("expected non-negative integer")
    keys = keys.astype(np.uint64)
    head: List[_Word] = [w for value in prefix for w in _words(value)]
    out = np.empty((keys.shape[0], n), dtype=np.float64)
    if n == 0 or not keys.shape[0]:
        return out
    low = (keys & _MASK32).astype(np.uint32)
    high = (keys >> 32).astype(np.uint32)
    # Bit j of a key's pattern is set when its integer j takes two words.
    patterns = (high != 0) @ (1 << np.arange(keys.shape[1], dtype=np.int64))
    for pattern in np.unique(patterns).tolist():
        rows = np.flatnonzero(patterns == pattern)
        words = list(head)
        for column in range(keys.shape[1]):
            words.append(low[rows, column])
            if pattern >> column & 1:
                words.append(high[rows, column])
        out[rows] = _uniforms(_pool(words), n)
    return out
