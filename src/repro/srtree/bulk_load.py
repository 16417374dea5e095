"""Static SR-tree construction (the paper's build path).

Section 2: "We used the static build method, as it was much faster and
guaranteed uniform leaf size.  Unfortunately, it requires the collection to
fit in memory."  Here "fit in memory" means about 2.4 times the float32
collection while the build runs (two working matrices the rows ping-pong
between, plus row ids and the packed sort words — DESIGN §4, "Static
build: passes and memory") and only the result afterwards.

The builder is a sort-tile-recursive variant specialized for uniform
leaves: a row set is repeatedly cut along its widest-variance dimension,
with the cut position snapped to a multiple of the leaf capacity, until
groups fit in one leaf.  Every leaf therefore holds exactly
``leaf_capacity`` descriptors except the single trailing remainder leaf —
the "roundish chunks of uniform physical size" the paper describes.

The rows are physically permuted as they are cut, so every node — and in
the end every leaf — is a contiguous slice of one working matrix:
:func:`ordered_partition` returns that matrix *in chunk order* next to the
row permutation, and the chunker summarises leaves straight from it.

No internal level is ever materialised: the paper discards the upper
levels and keeps one chunk per leaf, whose sphere and rectangle live in
:class:`~repro.core.chunk.ChunkMeta`.

The calling thread cuts the top of the tree until there is one subtree
per usable CPU; then all subtrees are cut at once, in threads, because a
node's work is a few large numpy calls (copy, reduce, sort, take) that
release the GIL.  A node reads and writes only its own rows, and the
tree's shape depends only on the row count and the leaf capacity, so the
result — and every file byte built from it — is the same at any CPU
count.  With one usable CPU no thread starts.
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["ordered_partition"]

#: Size of the float64 staging block a node's variance is accumulated
#: through (2,048 rows at d = 24).  Sized to stay L2-resident across the
#: promote / subtract / square / reduce steps that reuse it; a constant of
#: the machine class, not of the data, hence not a parameter.
_BLOCK_BYTES = 384 * 1024

#: Most rows one build takes: a row's position must fit the low 32 bits of
#: its packed sort word (:func:`_stable_order`).
_MAX_ROWS = 2**32 - 1


def _column_sums(
    node: np.ndarray, block: np.ndarray, mean: Optional[np.ndarray]
) -> np.ndarray:
    """Column sums of ``node`` promoted to float64, accumulated block-wise.

    With ``mean`` given the summands are the squared deviations from it.
    ``add.reduce(axis=0)`` over a C-contiguous matrix adds row after row
    into the output, so carrying the running sum as row 0 of the next
    block repeats exactly the additions of one reduction over all of
    ``node`` — the result is bit-equal to it, whatever the block size.
    """
    total = np.empty(node.shape[1], dtype=np.float64)
    step = block.shape[0] - 1
    for start in range(0, node.shape[0], step):
        rows = node[start : start + step]
        staged = block[1 : rows.shape[0] + 1]
        np.copyto(staged, rows)
        if mean is not None:
            np.subtract(staged, mean, out=staged)
            np.multiply(staged, staged, out=staged)
        if start == 0:
            np.add.reduce(staged, axis=0, out=total)
        else:
            block[0] = total
            np.add.reduce(block[: rows.shape[0] + 1], axis=0, out=total)
    return total


def _node_variance(node: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``node.astype(float64).var(axis=0)`` bit for bit, without the copy.

    The operations are numpy's own (sum, divide, subtract, square, sum,
    divide — all float64, in that order); only the traffic differs: two
    reads of ``node`` through an L2-sized block instead of five passes
    over full-size float64 temporaries.
    """
    count = node.shape[0]
    mean = _column_sums(node, block, None)
    np.true_divide(mean, count, out=mean)
    variance = _column_sums(node, block, mean)
    np.true_divide(variance, count, out=variance)
    return variance


def _stable_order(
    column: np.ndarray,
    words: np.ndarray,
    key: np.ndarray,
    flip: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """``np.argsort(column, kind="stable")`` of a finite float32 column.

    Each row becomes one uint64 word, ``(key << 32) | position``, where
    ``key`` is the float's bit pattern mapped to an unsigned integer of the
    same order: ``-0.0`` is first canonicalised to ``+0.0`` (they compare
    equal, so they must tie), then a negative float has every bit flipped
    and a non-negative one only its sign bit.  The words are unique, so
    any sort of them — here numpy's unstable one, in place in ``words`` —
    yields the one order of (value, position): the stable argsort's.  The
    low 32 bits of each sorted word are then the order, returned as an
    int64 view of ``words`` (valid until the next call).

    ``words`` (uint64), ``key`` (float32) and ``flip`` (int32) are scratch
    the caller owns and ``positions`` holds ``0, 1, ...``; of each, only
    the first ``len(column)`` entries are used.
    """
    size = column.shape[0]
    words, key, flip = words[:size], key[:size], flip[:size]
    np.add(column, np.float32(0.0), out=key)  # a contiguous copy; -0.0 -> +0.0
    np.right_shift(key.view(np.int32), 31, out=flip)  # all ones if negative
    flip |= np.int32(-(2**31))  # ... and the sign bit for every float
    bits = key.view(np.uint32)
    bits ^= flip.view(np.uint32)
    np.copyto(words, bits)
    words <<= np.uint64(32)
    words |= positions[:size]
    words.sort()
    words &= np.uint64(0xFFFFFFFF)
    return words.view(np.int64)


def _refuse_non_finite(vectors: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first row with a NaN or infinity."""
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        raise ValueError(
            f"descriptor row {int(bad[0])} has a non-finite component; "
            "the static build orders rows by their coordinates and needs "
            "all of them finite"
        )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Tree:
    """The build's working state: two matrices the rows ping-pong between,
    their row ids, and the sort scratch — every array ``n`` rows long and
    sliced by a node at its own ``[lo, hi)``, so nodes of disjoint subtrees
    never touch the same bytes.  Allocated whole, by the calling thread,
    before any node is cut."""

    def __init__(self, home: np.ndarray, leaf_capacity: int):
        n = home.shape[0]
        self.leaf_capacity = leaf_capacity
        self.matrices = (home, np.empty_like(home))
        self.row_ids = (np.arange(n, dtype=np.intp), np.empty(n, dtype=np.intp))
        self.words = np.empty(n, dtype=np.uint64)
        self.key = np.empty(n, dtype=np.float32)
        self.flip = np.empty(n, dtype=np.int32)
        self.positions = np.arange(n, dtype=np.uint64)

    def block(self, size: int) -> np.ndarray:
        """A float64 staging block for the variance of nodes of at most
        ``size`` rows; row 0 carries the running sum."""
        d = self.matrices[0].shape[1]
        return np.empty((min(size, max(1, _BLOCK_BYTES // (8 * d))) + 1, d))

    def split(self, lo: int, hi: int, side: int, block: np.ndarray) -> int:
        """Reorder node ``[lo, hi)`` of ``matrices[side]`` into the other
        matrix, sorted on its widest-variance column; return the cut."""
        node = self.matrices[side][lo:hi]
        variance = _node_variance(node, block)
        # The root sees every component, and a NaN or infinity anywhere
        # makes its column's variance non-finite: the check is free.  It
        # runs before the first reordering, so ``home`` is in input order.
        home = self.matrices[0]
        if hi - lo == home.shape[0] and not np.isfinite(variance).all():
            _refuse_non_finite(home)
        axis = int(np.argmax(variance))
        order = _stable_order(
            node[:, axis],
            self.words[lo:hi],
            self.key[lo:hi],
            self.flip[lo:hi],
            self.positions,
        )
        # mode="clip": the indices are a permutation, so no clipping ever
        # happens, and unlike the default "raise" numpy does not buffer
        # the whole output before copying it into ``out``.
        other = 1 - side
        np.take(node, order, axis=0, out=self.matrices[other][lo:hi], mode="clip")
        ids = self.row_ids
        np.take(ids[side][lo:hi], order, out=ids[other][lo:hi], mode="clip")
        # The cut is a multiple of the leaf capacity from the node's start.
        n_leaves = -(-(hi - lo) // self.leaf_capacity)  # leaves it still needs
        return lo + (n_leaves // 2) * self.leaf_capacity

    def cut_subtree(self, lo: int, hi: int, side: int, block: np.ndarray) -> List[int]:
        """Cut node ``[lo, hi)`` of ``matrices[side]`` down to its leaves,
        depth first, each copied home; return their ends, left to right."""
        ends: List[int] = []
        stack = [(lo, hi, side)]
        while stack:
            lo, hi, side = stack.pop()
            if hi - lo <= self.leaf_capacity:
                if side:
                    self.matrices[0][lo:hi] = self.matrices[1][lo:hi]
                    self.row_ids[0][lo:hi] = self.row_ids[1][lo:hi]
                ends.append(hi)
                continue
            cut = self.split(lo, hi, side, block)
            # Right half first: the stack then yields leaves left to right.
            stack.append((cut, hi, 1 - side))
            stack.append((lo, cut, 1 - side))
        return ends


def ordered_partition(
    vectors: np.ndarray, leaf_capacity: int
) -> Tuple[np.ndarray, List[int], np.ndarray]:
    """Cut ``vectors`` into uniform leaves; return them physically ordered.

    Returns ``(rows, bounds, ordered)``: leaf ``i`` holds the input rows
    ``rows[bounds[i]:bounds[i + 1]]`` (dtype intp, in leaf order) and
    ``ordered[bounds[i]:bounds[i + 1]]`` are those rows' vectors, i.e.
    ``ordered`` equals ``vectors[rows]``.  ``vectors`` must be float32 —
    the dtype :class:`~repro.core.dataset.DescriptorCollection` holds —
    and is only read; any other dtype is a ``TypeError``, and more than
    ``2**32 - 1`` rows a ``ValueError``.

    Each node is a slice ``[lo, hi)`` of one of two working matrices.  It
    is split on its dimension of largest variance by a stable sort of that
    column, which writes the slice — reordered — into the *other* matrix,
    where its two halves are the next nodes; a leaf that settles in the
    spare matrix is copied home.  Nothing proportional to ``m * d`` is
    allocated per node.

    The calling thread splits the widest node until there is one subtree
    per usable CPU; the subtrees are then cut at once, one of them by the
    caller, and a worker's exception is raised here once all have ended.
    With one usable CPU no thread starts.  Every node runs the same
    operations on the same values whoever cuts it, and writes only its own
    rows, so the result does not depend on the CPU count.
    """
    vectors = np.asarray(vectors)
    if vectors.dtype != np.float32:
        raise TypeError(
            f"the static build needs float32 vectors, got {vectors.dtype}; "
            "convert with astype(np.float32)"
        )
    if vectors.ndim != 2 or vectors.size == 0:
        raise ValueError("need a non-empty (n, d) matrix")
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be at least 1")
    if vectors.shape[0] > _MAX_ROWS:
        raise ValueError(
            f"{vectors.shape[0]} rows exceed the static build's limit of "
            f"{_MAX_ROWS} (a row position must fit in 32 bits)"
        )
    home = np.array(vectors, order="C")
    tree = _Tree(home, leaf_capacity)
    top = tree.block(home.shape[0])

    subtrees = [(0, home.shape[0], 0)]
    cpus = _usable_cpus()
    while len(subtrees) < cpus:
        sizes = [hi - lo for lo, hi, _ in subtrees]
        widest = sizes.index(max(sizes))
        lo, hi, side = subtrees[widest]
        if hi - lo <= leaf_capacity:
            break
        middle = tree.split(lo, hi, side, top)
        subtrees[widest : widest + 1] = [(lo, middle, 1 - side), (middle, hi, 1 - side)]

    blocks = [top] + [tree.block(hi - lo) for lo, hi, _ in subtrees[1:]]
    ends: List[List[int]] = [[] for _ in subtrees]
    errors: List[BaseException] = []

    def cut(i: int) -> None:
        try:
            ends[i] = tree.cut_subtree(*subtrees[i], blocks[i])
        except BaseException as error:  # raised below, once every worker ended
            errors.append(error)

    workers = [threading.Thread(target=cut, args=(i,)) for i in range(1, len(subtrees))]
    for worker in workers:
        worker.start()
    cut(0)
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    return tree.row_ids[0], [0] + [end for subtree in ends for end in subtree], home
