"""The maintainer's lean apply path against its pre-change self.

An insert finds its chunk with one direct-form ``einsum``, and every
centroid is divided straight into the centroid matrix;
:mod:`reference_maintenance` keeps the path this replaced (the checked
``squared_distances``, a freshly divided centroid copied in) and sums every
chunk with the pre-change ``_resum``.  Driven through the same seeded
inserts, deletes, drains, splits and merges — rows over 80 binades, so
that any change in the order of additions shows in a sum's bytes — both
must land every insert in the same chunk and hold the same bytes of every
chunk's rows, ids, origins and sum, and of the centroid matrix, after
every operation.

Planted twins show the comparison can fail: a maintainer that picks the
nearest centroid by the expanded form ``|c|^2 - 2 c.v + |v|^2``, one
whose one-dimensional centroids are the float32 ``rows.mean(axis=0)``,
and one that keeps a running sum at d = 1, where numpy sums pairwise.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptors import from_vectors
from reference_maintenance import ReferenceMaintainer
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk_index import build_chunk_index
from repro.core.maintenance import SPLIT_FACTOR, ChunkIndexMaintainer, _MutableChunk


def _state(maintainer):
    """Every byte of maintained state, chunk by chunk."""
    chunks = tuple(
        (
            chunk.position,
            tuple(chunk.ids),
            chunk.rows().tobytes(),
            tuple(chunk.origins),
            chunk._sum.tobytes(),
            chunk.base_ref,
            chunk.dirty,
        )
        for chunk in maintainer._chunks
    )
    return chunks, maintainer._centroids.tobytes(), maintainer.stats


def first_divergence(
    make, seed: int, dims: int, binades: int, n_ops: int, target: int
) -> Optional[str]:
    """Drive ``make(index)`` and the reference with the same operations;
    the first operation after which they differ, or ``None``.

    ``target`` replaces both maintainers' target chunk size, so splits
    (above twice it) and merges (below a fifth of it) fire on a
    36-descriptor base of chunks of at most six.
    """
    rng = np.random.default_rng(seed)

    def scattered(shape):
        rows = rng.standard_normal(shape) * 3.0
        if binades:
            rows *= 2.0 ** rng.integers(-binades, binades + 1, (*shape[:-1], 1))
        return rows.astype(np.float32)

    base = from_vectors(scattered((36, dims)))
    chunking = SRTreeChunker(leaf_capacity=6).form_chunks(base)
    index = build_chunk_index(chunking.retained, chunking.chunk_set)
    shipped, reference = make(index), ReferenceMaintainer(index)
    shipped.target_chunk_size = reference.target_chunk_size = target
    retained = chunking.retained
    rows = {int(i): row for i, row in zip(retained.ids, retained.vectors)}
    live = sorted(rows)
    next_id = 10_000

    for step in range(n_ops):
        roll = rng.random()
        if roll < 0.06 and reference.n_chunks > 1:
            # Drain one chunk: it merges away, or empties and is dropped.
            chunk = reference._chunks[int(rng.integers(reference.n_chunks))]
            doomed = list(chunk.ids)
            what = f"drain of {len(doomed)}"
        elif roll < 0.35 and len(live) > 2:
            doomed = [live[int(rng.integers(len(live)))]]
            what = f"delete {doomed[0]}"
        else:
            doomed = []
            if roll < 0.85 and live:
                # Clustered near a live member, relative to its size:
                # grows one chunk until it splits into near neighbours.
                anchor = rows[live[int(rng.integers(len(live)))]]
                jitter = 10.0 ** rng.uniform(-7, -2)
                vector = (anchor * (1.0 + jitter * rng.standard_normal(dims))).astype(
                    np.float32
                )
            else:
                vector = scattered((dims,))
            got = shipped.insert(next_id, vector)
            want = reference.insert(next_id, vector)
            rows[next_id] = vector
            live.append(next_id)
            what = f"insert {next_id}"
            next_id += 1
            if got != want:
                return f"step {step}: {what} landed in {got}, not {want}"
        for descriptor_id in doomed:
            shipped.delete(descriptor_id)
            reference.delete(descriptor_id)
            live.remove(descriptor_id)
        if _state(shipped) != _state(reference):
            return f"step {step}: state differs after {what}"
    return None


class _CountingChunk(_MutableChunk):
    """The shipped chunk, recording how many rows each append brings."""

    __slots__ = ()
    appended: List[int] = []

    def append(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        _CountingChunk.appended.append(len(ids))
        super().append(ids, vectors)


def _fires(seed, dims, binades, n_ops, target):
    """Splits, merges and the most rows one append brought in a run that
    equals the reference."""
    fired = {}

    def make(index):
        fired["maintainer"] = _with_chunks(_CountingChunk)(index)
        return fired["maintainer"]

    _CountingChunk.appended.clear()
    assert first_divergence(make, seed, dims, binades, n_ops, target) is None
    stats = fired["maintainer"].stats
    return stats.splits, stats.merges, max(_CountingChunk.appended)


class TestLeanPathEqualsReference:
    @given(
        st.integers(0, 2**16),
        st.sampled_from([1, 2, 5, 24]),
        st.integers(40, 160),
        st.sampled_from([4, 10, 20]),
    )
    @settings(max_examples=settings.default.max_examples // 4, deadline=None)
    def test_every_byte_equal_after_every_op(self, seed, dims, n_ops, target):
        divergence = first_divergence(
            ChunkIndexMaintainer, seed, dims, 40, n_ops, target
        )
        assert divergence is None, divergence

    @pytest.mark.parametrize("dims", [1, 2, 5, 24])
    def test_fixed_runs_split_and_merge(self, dims):
        """The structural paths the property relies on fire at every
        dimensionality, a merge that appends several rows among them:
        asserted, not hoped for."""
        splits, merges, _ = _fires(7, dims, 40, 200, 10)
        assert splits >= 1 and merges >= 1
        _, merges, most = _fires(7, dims, 40, 200, 20)
        assert merges >= 1 and most >= 2


class _ExpandedFormTwin(ChunkIndexMaintainer):
    """Picks the nearest centroid by ``|c|^2 - 2 c.v + |v|^2``."""

    def insert(self, descriptor_id: int, vector: np.ndarray) -> int:
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        v = vector.astype(np.float64)
        d2 = (self._centroids**2).sum(axis=1) - 2.0 * self._centroids @ v + v @ v
        position = int(np.argmin(d2))
        chunk = self._chunks[position]
        chunk.append((int(descriptor_id),), vector)
        chunk.dirty = True
        self._chunk_of_id[int(descriptor_id)] = chunk
        self._refresh_centroid(position)
        self.stats.inserts += 1
        if len(chunk) > SPLIT_FACTOR * self.target_chunk_size:
            self._split(position)
        return position


class _Float32MeanChunk(_MutableChunk):
    """At d = 1 the centroid is the float32 rows' own mean."""

    __slots__ = ()

    def centroid(self, out=None):
        if self._sum.shape[0] > 1:
            return super().centroid(out)
        mean = self.rows().mean(axis=0)
        if out is None:
            return mean.astype(np.float64)
        out[...] = mean
        return out


class _RunningSumChunk(_MutableChunk):
    """Adds appended rows to the sum at every dimensionality."""

    __slots__ = ()

    def append(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        start = len(self.ids)
        end = start + len(ids)
        if end > self._buffer.shape[0]:
            self._grow(end)
        self._buffer[start:end] = vectors
        self.ids.extend(ids)
        self.origins.extend([-1] * len(ids))
        for row in self._buffer[start:end]:
            self._sum += row


def _with_chunks(chunk_class):
    """The shipped maintainer with every chunk a ``chunk_class``."""

    class Twin(ChunkIndexMaintainer):
        def __init__(self, index):
            super().__init__(index)
            for chunk in self._chunks:
                chunk.__class__ = chunk_class

        def _split(self, position):
            super()._split(position)
            self._chunks[-1].__class__ = chunk_class

    return Twin


class TestPlantedTwinsFail:
    """Each twin on a fixed run the comparison catches.  Float32 rows make
    the expanded form in float64 nearly exact, so its flips need rows
    over many binades and are rare: the seed is one found to flip."""

    def test_expanded_form_nearest_centroid(self):
        divergence = first_divergence(_ExpandedFormTwin, 17, 2, 40, 200, 10)
        assert divergence is not None and "landed in" in divergence

    def test_float32_mean_at_one_dimension(self):
        twin = _with_chunks(_Float32MeanChunk)
        assert first_divergence(twin, 11, 1, 40, 200, 10) is not None

    def test_running_sum_at_one_dimension(self):
        twin = _with_chunks(_RunningSumChunk)
        assert first_divergence(twin, 11, 1, 40, 200, 10) is not None
        # Rows of one magnitude sum exactly in any order.
        assert first_divergence(twin, 11, 1, 0, 200, 10) is None
