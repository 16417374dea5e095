"""Property tests of the chunk-index maintainer.

**The pruning bound stays sound under maintenance.**

The searcher skips a chunk when ``max(0, d(q, centroid) - radius)``
exceeds the current k-th distance; that is only correct if the bound
never exceeds the true distance from the query to *any* live member of
the chunk.  Batch-built indexes get this by construction; this test
checks that no seeded sequence of inserts, deletes, splits and merges
can break it — the summaries are recomputed exactly on every mutation,
so the bound must hold (to float64 rounding) at every intermediate state.

**The row buffer is a row list.**  Each chunk keeps its members in one
growable matrix edited in place, beside a running float64 column sum;
:class:`_RowListModel` is the plain list of row arrays that matrix
replaced.  Driven through the same seeded operations, every chunk's
matrix must equal the ``np.vstack`` of the model's rows, its centroid
that stack's float64 mean and its rectangle that stack's per-dimension
minimum and maximum, bit for bit after every operation — and a
maintainer restored from the chunks' snapshots (recovery's path, which
sums each chunk afresh) must hold the same centroid bytes as the live
one, whose sums were carried through every insert.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk_index import build_chunk_index
from repro.core.distance import squared_distances
from repro.core import maintenance
from repro.core.maintenance import SPLIT_FACTOR, ChunkIndexMaintainer
from descriptors import from_vectors, sphere_lower_bound


def _assert_bound_sound(maintainer, queries):
    """max(0, d(q, centroid) - radius) <= d(q, member), for everything."""
    index = maintainer.to_index()
    for query in queries:
        for meta in index.metas:
            ids, vectors = index.store.read_chunk(meta.chunk_id)
            assert ids.size == meta.n_descriptors
            true = np.sqrt(squared_distances(query, vectors))
            bound = sphere_lower_bound(meta, query)
            # The centroid is the float64 mean of the live members and
            # the radius their exact maximum distance, so the triangle
            # inequality makes the bound sound up to float64 rounding
            # of the two square roots.
            assert bound <= true.min() + 1e-9, (
                f"chunk {meta.chunk_id}: bound {bound} exceeds "
                f"true distance {true.min()}"
            )
            # The rectangle is exact: no member outside it, no tolerance.
            assert np.all(vectors >= meta.lower) and np.all(vectors <= meta.upper)


@st.composite
def workloads(draw):
    """A seeded mixed maintenance workload over a small collection."""
    seed = draw(st.integers(0, 2**16))
    n_base = draw(st.integers(8, 40))
    dims = draw(st.integers(1, 6))
    leaf = draw(st.integers(2, 8))
    n_ops = draw(st.integers(5, 60))
    spread = draw(st.floats(0.05, 8.0))
    return seed, n_base, dims, leaf, n_ops, spread


class TestPruningBoundSoundness:
    @given(workloads())
    @settings(max_examples=3 * settings.default.max_examples // 10, deadline=None)
    def test_bound_never_exceeds_true_distance(self, workload):
        seed, n_base, dims, leaf, n_ops, spread = workload
        rng = np.random.default_rng(seed)
        base = from_vectors(
            (rng.standard_normal((n_base, dims)) * spread).astype(np.float32)
        )
        chunking = SRTreeChunker(leaf_capacity=leaf).form_chunks(base)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        maintainer = ChunkIndexMaintainer(index)
        queries = rng.standard_normal((3, dims)) * spread * 2

        live = {int(i) for i in chunking.retained.ids}
        next_id = 10_000
        splits_before = maintainer.stats.splits
        merges_before = maintainer.stats.merges
        for _ in range(n_ops):
            # Bias toward inserts so splits occur; deletes drive merges.
            if live and rng.random() < 0.35 and len(live) > 1:
                victim = int(rng.choice(sorted(live)))
                maintainer.delete(victim)
                live.discard(victim)
            else:
                # Clustered inserts (near an existing member) force
                # splits; uniform ones land anywhere.
                if live and rng.random() < 0.7:
                    anchor = maintainer.to_index()
                    ids, vectors = anchor.store.read_chunk(0)
                    vector = vectors[0] + rng.standard_normal(dims).astype(
                        np.float32
                    ) * 0.01
                else:
                    vector = (rng.standard_normal(dims) * spread).astype(
                        np.float32
                    )
                maintainer.insert(next_id, vector)
                live.add(next_id)
                next_id += 1
            _assert_bound_sound(maintainer, queries)
        # The workload is tuned so the structural operations actually
        # fire across the example set; this example alone may not split.
        assert maintainer.stats.splits >= splits_before
        assert maintainer.stats.merges >= merges_before

    @given(st.integers(0, 2**16))
    @settings(max_examples=settings.default.max_examples // 10, deadline=None)
    def test_bound_sound_after_forced_splits_and_merges(self, seed):
        """Deterministically drive both split and merge paths."""
        rng = np.random.default_rng(seed)
        base = from_vectors(
            (rng.standard_normal((24, 4)) * 2.0).astype(np.float32)
        )
        chunking = SRTreeChunker(leaf_capacity=6).form_chunks(base)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        maintainer = ChunkIndexMaintainer(index)
        queries = rng.standard_normal((4, 4)) * 4.0

        target = maintainer.target_chunk_size
        n_burst = int(SPLIT_FACTOR * target) + 2
        anchor = base.vectors[0]
        for i in range(n_burst):
            maintainer.insert(20_000 + i, anchor + 0.001 * (i + 1))
        assert maintainer.stats.splits >= 1
        _assert_bound_sound(maintainer, queries)

        for i in range(n_burst):
            maintainer.delete(20_000 + i)
            _assert_bound_sound(maintainer, queries)
        for descriptor_id in sorted(int(i) for i in chunking.retained.ids)[:-2]:
            maintainer.delete(descriptor_id)
            _assert_bound_sound(maintainer, queries)
        assert maintainer.stats.merges >= 1


class _RowListModel:
    """Each chunk a Python list of ``(id, row)``: the reference the
    maintainer's in-place row buffers are compared against."""

    def __init__(self, index):
        self.chunks = []
        for chunk_id in range(index.n_chunks):
            ids, vectors = index.read_chunk(chunk_id)
            self.chunks.append(
                [(int(i), row.copy()) for i, row in zip(ids, vectors)]
            )

    def ids(self, position):
        return tuple(descriptor_id for descriptor_id, _ in self.chunks[position])

    def insert(self, position, descriptor_id, row):
        self.chunks[position].append((descriptor_id, row))

    def split(self, position, moved_ids):
        """Both halves keep their members' relative order."""
        members = self.chunks[position]
        self.chunks[position] = [m for m in members if m[0] not in moved_ids]
        self.chunks.append([m for m in members if m[0] in moved_ids])

    def delete(self, descriptor_id):
        for position, members in enumerate(self.chunks):
            for row, (member_id, _) in enumerate(members):
                if member_id == descriptor_id:
                    del members[row]
                    return position
        raise KeyError(descriptor_id)

    def merge(self, position, other):
        self.chunks[other].extend(self.chunks[position])
        del self.chunks[position]

    def assert_matches(self, maintainer):
        assert maintainer.n_chunks == len(self.chunks)
        summaries = maintainer.summaries()
        for position, members in enumerate(self.chunks):
            stack = np.vstack([row[np.newaxis, :] for _, row in members])
            snap = maintainer.snapshot(position)
            assert snap.ids == self.ids(position)
            assert snap.vectors.dtype == np.float32
            assert snap.vectors.flags.c_contiguous
            assert snap.vectors.tobytes() == stack.tobytes()
            centroid = stack.astype(np.float64).mean(axis=0).tobytes()
            assert maintainer._centroids[position].tobytes() == centroid
            assert summaries[position].meta.centroid.tobytes() == centroid
            lower = stack.min(axis=0).astype(np.float64).tobytes()
            upper = stack.max(axis=0).astype(np.float64).tobytes()
            assert summaries[position].meta.lower.tobytes() == lower
            assert summaries[position].meta.upper.tobytes() == upper
        restored = ChunkIndexMaintainer.restore(
            maintainer.dimensions,
            [maintainer.snapshot(p) for p in range(maintainer.n_chunks)],
            maintainer.target_chunk_size,
        )
        assert restored._centroids.tobytes() == maintainer._centroids.tobytes()


def _drive_against_row_lists(
    seed, split_factor, merge_fraction, n_ops, dims, binades=0
):
    """Seeded inserts/deletes checked against the model after every one.

    The model takes only *decisions* from the maintainer (which chunk an
    insert landed in, which ids a split moved, which chunk absorbed a
    merge); every row and every ordering is its own.  Returns what fired.

    ``binades > 0`` scales each base row and each scattered insert by
    ``2 ** j`` for ``j`` uniform in ``[-binades, binades]``.  A float64 sum
    of float32 rows of similar magnitude is exact, so without that spread
    the order of the additions could not show in a centroid's bytes.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maintenance, "SPLIT_FACTOR", split_factor)
        patch.setattr(maintenance, "MERGE_FRACTION", merge_fraction)
        return _drive(np.random.default_rng(seed), n_ops, dims, binades)


def _drive(rng, n_ops, dims, binades):
    def scattered(shape):
        rows = rng.standard_normal(shape) * 3.0
        if binades:
            rows *= 2.0 ** rng.integers(-binades, binades + 1, (*shape[:-1], 1))
        return rows.astype(np.float32)

    base = from_vectors(scattered((36, dims)))
    chunking = SRTreeChunker(leaf_capacity=6).form_chunks(base)
    index = build_chunk_index(chunking.retained, chunking.chunk_set)
    maintainer = ChunkIndexMaintainer(index)
    model = _RowListModel(index)
    model.assert_matches(maintainer)
    initial_largest = max(len(members) for members in model.chunks)
    fired = {"splits": 0, "merges": 0, "drops": 0, "largest_growth": 1.0}

    def insert(descriptor_id, vector):
        splits = maintainer.stats.splits
        position = maintainer.insert(descriptor_id, vector)
        model.insert(position, descriptor_id, vector)
        if maintainer.stats.splits > splits:
            fired["splits"] += 1
            model.split(
                position, set(maintainer.snapshot(maintainer.n_chunks - 1).ids)
            )
        model.assert_matches(maintainer)

    def delete(descriptor_id):
        merges = maintainer.stats.merges
        position = model.delete(descriptor_id)
        maintainer.delete(descriptor_id)
        if maintainer.stats.merges > merges:
            fired["merges"] += 1
            survivor = model.chunks[position][0][0]
            landed = next(
                p
                for p in range(maintainer.n_chunks)
                if survivor in maintainer.snapshot(p).ids
            )
            # ``landed`` is a position after the merged chunk was dropped.
            model.merge(position, landed if landed < position else landed + 1)
        elif not model.chunks[position]:
            fired["drops"] += 1
            del model.chunks[position]
        model.assert_matches(maintainer)

    next_id = 10_000
    for _ in range(n_ops):
        n_live = sum(len(members) for members in model.chunks)
        roll = rng.random()
        if roll < 0.06 and len(model.chunks) > 1:
            # Drain one chunk member by member: merges away, or with
            # merging off empties and is dropped.
            for descriptor_id in model.ids(int(rng.integers(len(model.chunks)))):
                if descriptor_id in maintainer:
                    delete(descriptor_id)
        elif roll < 0.35 and n_live > 2:
            members = model.chunks[int(rng.integers(len(model.chunks)))]
            delete(members[int(rng.integers(len(members)))][0])
        else:
            if roll < 0.85:
                # Clustered: keeps one chunk growing through several
                # reallocations until it splits.
                anchor = model.chunks[0][0][1]
                vector = anchor + rng.standard_normal(dims).astype(np.float32) * 0.01
            else:
                vector = scattered((dims,))
            insert(next_id, vector)
            next_id += 1
        largest = max(len(members) for members in model.chunks)
        fired["largest_growth"] = max(
            fired["largest_growth"], largest / initial_largest
        )
    return fired


class TestRowBufferEqualsRowList:
    @given(
        st.integers(0, 2**16),
        st.sampled_from([2.0, 4.0]),
        st.sampled_from([0.0, 0.2, 0.5]),
        st.integers(10, 120),
        st.sampled_from([1, 2, 5, 24]),
        st.sampled_from([0, 40]),
    )
    @settings(max_examples=settings.default.max_examples // 4, deadline=None)
    def test_matrix_and_centroid_bit_identical_after_every_op(
        self, seed, split_factor, merge_fraction, n_ops, dims, binades
    ):
        _drive_against_row_lists(
            seed, split_factor, merge_fraction, n_ops, dims, binades
        )

    def test_every_structural_path_is_exercised(self):
        """Fixed seeds, so the coverage the property test relies on —
        splits, merges, drops and growth well past the initial
        capacity — is itself asserted rather than hoped for."""
        merging = _drive_against_row_lists(2005, 4.0, 0.5, 200, dims=5)
        assert merging["splits"] >= 1 and merging["merges"] >= 1
        assert merging["largest_growth"] > 2.0
        dropping = _drive_against_row_lists(2006, 2.0, 0.0, 200, dims=5)
        assert dropping["splits"] >= 1 and dropping["drops"] >= 1
        assert dropping["merges"] == 0

    @pytest.mark.parametrize("dims", [1, 2, 24])
    def test_rows_of_every_magnitude_show_the_order_of_additions(self, dims):
        """Rows spread over 80 binades make float64 sums round, so a sum
        taken in another order than numpy's (row after row, but pairwise
        at one dimension) shows in a centroid's bytes."""
        fired = _drive_against_row_lists(2007, 4.0, 0.5, 150, dims, binades=40)
        assert fired["merges"] >= 1

    def test_a_chunk_grown_past_4096_members_keeps_its_sum_exact(self):
        """Over four thousand one-row additions to one running sum, with
        deletes from the same chunk re-summing it now and then.  After
        every operation the chunk's running-sum centroid is numpy's mean
        of a plain matrix of its members, bit for bit; every 50 the
        centroid restored from its snapshot is too, and every 500 the
        whole row-list model is compared."""
        rng = np.random.default_rng(4096)
        dims = 24
        base = from_vectors(
            (rng.standard_normal((36, dims)) * 3.0).astype(np.float32)
        )
        chunking = SRTreeChunker(leaf_capacity=6).form_chunks(base)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(maintenance, "SPLIT_FACTOR", float("inf"))
            patch.setattr(maintenance, "MERGE_FRACTION", 0.0)
            maintainer = ChunkIndexMaintainer(index)
            model = _RowListModel(index)
            anchor = model.chunks[0][0][1]
            first = np.vstack([row for _, row in model.chunks[0]])
            grown = np.empty((len(first) + 4200, dims), dtype=np.float32)
            grown[: len(first)] = first
            n = len(first)
            for step, descriptor_id in enumerate(range(10_000, 14_200)):
                vector = anchor + (rng.standard_normal(dims) * 0.01).astype(
                    np.float32
                )
                assert maintainer.insert(descriptor_id, vector) == 0
                model.insert(0, descriptor_id, vector)
                grown[n] = vector
                n += 1
                if step % 97 == 96:
                    row = int(rng.integers(n))
                    victim = model.ids(0)[row]
                    model.delete(victim)
                    maintainer.delete(victim)
                    grown[row : n - 1] = grown[row + 1 : n].copy()
                    n -= 1
                mean = grown[:n].astype(np.float64).mean(axis=0).tobytes()
                assert maintainer._centroids[0].tobytes() == mean
                if step % 50 == 0:
                    restored = ChunkIndexMaintainer.restore(
                        dims, [maintainer.snapshot(0)], maintainer.target_chunk_size
                    )
                    assert restored._centroids[0].tobytes() == mean
                if step % 500 == 0:
                    model.assert_matches(maintainer)
            model.assert_matches(maintainer)
        assert n > 4096
