"""Tests for incremental chunk-index maintenance."""

import dataclasses

import numpy as np
import pytest

from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk_index import ChunkIndex, build_chunk_index
from repro.core.ground_truth import exact_knn
from repro.core import maintenance
from repro.core.maintenance import SPLIT_FACTOR, ChunkIndexMaintainer, _MutableChunk
from repro.core.dataset import DescriptorCollection
from repro.core.ingest import StreamingChunkIndex
from repro.core.search import ChunkSearcher
from repro.storage.wal import delete_op, insert_op


@pytest.fixture()
def maintainer(tiny_collection):
    chunking = SRTreeChunker(leaf_capacity=12).form_chunks(tiny_collection)
    index = build_chunk_index(chunking.retained, chunking.chunk_set)
    return ChunkIndexMaintainer(index), tiny_collection


def full_collection_after(maintainer, base, inserted, deleted):
    """The logical collection after maintenance operations."""
    keep = [i for i in range(len(base)) if int(base.ids[i]) not in deleted]
    vectors = [base.vectors[i] for i in keep]
    ids = [int(base.ids[i]) for i in keep]
    for descriptor_id, vector in inserted:
        ids.append(descriptor_id)
        vectors.append(np.asarray(vector, dtype=np.float32))
    return DescriptorCollection(
        vectors=np.vstack(vectors),
        ids=np.asarray(ids, dtype=np.int64),
        image_ids=np.zeros(len(ids), dtype=np.int64),
    )


class TestConstruction:
    def test_copies_index(self, maintainer):
        m, collection = maintainer
        assert len(m) == len(collection)
        assert m.n_chunks > 1
        assert m.target_chunk_size == round(len(collection) / m.n_chunks)

    def test_validation(self, maintainer):
        m, _ = maintainer
        snaps = [m.snapshot(position) for position in range(m.n_chunks)]
        with pytest.raises(ValueError, match="target chunk size"):
            ChunkIndexMaintainer.restore(m.dimensions, snaps, target_chunk_size=0)


class TestInsert:
    def test_insert_searchable(self, maintainer):
        m, collection = maintainer
        new_vector = collection.vectors[0] + 0.01
        m.insert(1000, new_vector)
        assert len(m) == len(collection) + 1
        index = m.to_index()
        result = ChunkSearcher(index).search(
            new_vector.astype(float), k=1
        )
        assert result.neighbor_ids()[0] == 1000

    def test_duplicate_id_rejected(self, maintainer):
        m, _ = maintainer
        with pytest.raises(ValueError, match="already present"):
            m.insert(0, np.zeros(4))

    def test_dimension_mismatch(self, maintainer):
        m, _ = maintainer
        with pytest.raises(ValueError):
            m.insert(1000, np.zeros(3))

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "1e39"]
    )
    def test_non_finite_vector_refused_with_state_untouched(self, maintainer, value):
        """A float64 1e39 is past float32's maximum: cast, it is inf."""
        m, collection = maintainer
        before = [m.snapshot(p) for p in range(m.n_chunks)]
        centroids, stats = m._centroids.tobytes(), dataclasses.replace(m.stats)
        vector = collection.vectors[0].astype(np.float64)
        vector[2] = value
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            m.insert(1000, vector)
        assert 1000 not in m and len(m) == len(collection)
        assert m._centroids.tobytes() == centroids and m.stats == stats
        for position, snap in enumerate(before):
            after = m.snapshot(position)
            assert after.ids == snap.ids and after.dirty == snap.dirty
            assert after.vectors.tobytes() == snap.vectors.tobytes()
        m.insert(1000, collection.vectors[0])
        m.to_index()

    def test_oversized_chunk_splits(self, maintainer):
        m, collection = maintainer
        target = m.target_chunk_size
        before = m.n_chunks
        # Pour many descriptors into one spot to force a split.
        for i in range(int(SPLIT_FACTOR * target) + 2):
            m.insert(2000 + i, collection.vectors[0] + 0.001 * i)
        assert m.stats.splits >= 1
        assert m.n_chunks > before

    def test_exactness_preserved_after_inserts(self, maintainer):
        m, collection = maintainer
        rng = np.random.default_rng(0)
        inserted = []
        for i in range(25):
            vector = rng.standard_normal(4).astype(np.float32) * 3
            m.insert(5000 + i, vector)
            inserted.append((5000 + i, vector))
        logical = full_collection_after(m, collection, inserted, set())
        index = m.to_index()
        searcher = ChunkSearcher(index)
        for _ in range(5):
            query = rng.standard_normal(4) * 3
            got = searcher.search(query, k=6)
            np.testing.assert_array_equal(
                got.neighbor_ids(), exact_knn(logical, query, 6)
            )


class TestDelete:
    def test_delete_removes_from_results(self, maintainer):
        m, collection = maintainer
        m.delete(7)
        index = m.to_index()
        result = ChunkSearcher(index).search(
            collection.vectors[7].astype(float), k=len(collection) - 1
        )
        assert 7 not in set(result.neighbor_ids().tolist())

    def test_missing_id_raises(self, maintainer):
        m, _ = maintainer
        with pytest.raises(KeyError):
            m.delete(10_000)

    def test_shrunken_chunk_merges(self, maintainer):
        m, collection = maintainer
        # Delete most of one chunk's members to force a merge.
        index = m.to_index()
        ids, _ = index.read_chunk(0)
        for descriptor_id in ids[:-1]:
            m.delete(int(descriptor_id))
        assert m.stats.merges >= 1 or m.n_chunks < index.n_chunks

    def test_exactness_preserved_after_mixed_workload(self, maintainer):
        m, collection = maintainer
        rng = np.random.default_rng(1)
        inserted, deleted = [], set()
        for i in range(30):
            if i % 3 == 2:
                victim = int(rng.integers(len(collection)))
                if victim not in deleted:
                    m.delete(victim)
                    deleted.add(victim)
            else:
                vector = rng.standard_normal(4).astype(np.float32) * 4
                m.insert(7000 + i, vector)
                inserted.append((7000 + i, vector))
        logical = full_collection_after(m, collection, inserted, deleted)
        assert len(m) == len(logical)
        searcher = ChunkSearcher(m.to_index())
        for _ in range(5):
            query = rng.standard_normal(4) * 4
            got = searcher.search(query, k=5)
            np.testing.assert_array_equal(
                got.neighbor_ids(), exact_knn(logical, query, 5)
            )


class TestStorageAccounting:
    def test_extents_are_the_chunk_file_layout(
        self, tiny_collection, tmp_path, monkeypatch
    ):
        """A chunk grown past a page and shrunk back is charged its payload
        pages, the chunks laid out contiguously in position order: the
        extents ``save`` writes and ``load`` reads back."""
        # No split, so one chunk's payload outgrows its 8 KiB page: 4-d
        # records are 20 bytes, 409 to a page.
        monkeypatch.setattr(maintenance, "SPLIT_FACTOR", float("inf"))
        chunking = SRTreeChunker(leaf_capacity=12).form_chunks(tiny_collection)
        m = ChunkIndexMaintainer(
            build_chunk_index(chunking.retained, chunking.chunk_set)
        )

        def extents(index):
            return [(meta.page_offset, meta.page_count) for meta in index.metas]

        def saved_extents(index):
            index.save(str(tmp_path))
            with ChunkIndex.load(str(tmp_path), index.dimensions) as loaded:
                return extents(loaded)

        built = extents(m.to_index())
        for i in range(450):
            m.insert(9000 + i, tiny_collection.vectors[0] + 0.0001 * i)
        grown = m.to_index()
        assert max(grown.page_counts()) == 2
        assert extents(grown) == saved_extents(grown)
        for i in range(450):
            m.delete(9000 + i)
        shrunk = m.to_index()
        assert extents(shrunk) == built == saved_extents(shrunk)

    def test_extents_never_overlap(self, maintainer):
        m, collection = maintainer
        rng = np.random.default_rng(2)
        for i in range(100):
            m.insert(11000 + i, rng.standard_normal(4).astype(np.float32) * 4)
        index = m.to_index()
        spans = sorted(
            (meta.page_offset, meta.page_offset + meta.page_count)
            for meta in index.metas
        )
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end


def _observe(searcher, queries):
    """Everything a caller can see of a batch of exact searches."""
    return [
        (result.neighbor_ids().tolist(), [n.distance for n in result.neighbors])
        for result in searcher.search_batch(queries, k=8)
    ]


class TestSnapshotsDoNotAlias:
    """A chunk's members live in one buffer that later writes edit in
    place, so whatever ``snapshot()`` / ``to_index()`` handed out earlier
    must be a copy — the reader queries it while the writer keeps going."""

    def test_earlier_snapshot_and_searcher_survive_later_writes(self, maintainer):
        m, collection = maintainer
        rng = np.random.default_rng(17)
        # Leave spare capacity behind, so the writes below land in the
        # very buffers the snapshots were taken from.
        for i in range(8):
            m.insert(30_000 + i, collection.vectors[i] + 0.01)

        snaps = [m.snapshot(position) for position in range(m.n_chunks)]
        index = m.to_index()
        searcher = ChunkSearcher(index)
        queries = rng.standard_normal((6, 4)) * 5.0
        want_snaps = [(s.ids, s.vectors.copy(), s.origins) for s in snaps]
        want_chunks = [
            tuple(part.copy() for part in index.read_chunk(c))
            for c in range(index.n_chunks)
        ]
        want_results = _observe(searcher, queries)

        splits, merges = m.stats.splits, m.stats.merges
        anchor = collection.vectors[0]
        for i in range(int(SPLIT_FACTOR * m.target_chunk_size) + 2):
            m.insert(40_000 + i, anchor + 0.001 * (i + 1))
        for descriptor_id in sorted(int(i) for i in collection.ids)[:-3]:
            m.delete(descriptor_id)
        for i in range(8):
            m.delete(30_000 + i)
        assert m.stats.splits > splits and m.stats.merges > merges

        for snap, (ids, vectors, origins) in zip(snaps, want_snaps):
            assert snap.ids == ids and snap.origins == origins
            np.testing.assert_array_equal(snap.vectors, vectors)
        for c, (ids, vectors) in enumerate(want_chunks):
            got_ids, got_vectors = index.read_chunk(c)
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(got_vectors, vectors)
        assert _observe(searcher, queries) == want_results

    def test_restore_does_not_adopt_the_snapshot_matrix(self, maintainer):
        m, _ = maintainer
        snaps = [m.snapshot(position) for position in range(m.n_chunks)]
        want = [snap.vectors.copy() for snap in snaps]
        restored = ChunkIndexMaintainer.restore(
            m.dimensions, snaps, m.target_chunk_size
        )
        for snap in snaps:
            restored.delete(snap.ids[0])
        for snap, vectors in zip(snaps, want):
            np.testing.assert_array_equal(snap.vectors, vectors)


class TestCostGuard:
    """Counts, not clocks: a per-operation re-stack of a chunk's members
    cannot come back without these failing."""

    @staticmethod
    def _count_grows_and_copies(monkeypatch):
        grows, copies = [], []
        real_grow, real_copy = _MutableChunk._grow, _MutableChunk.copy_rows

        def counting_grow(chunk, needed):
            grows.append((len(chunk), needed))
            real_grow(chunk, needed)

        def counting_copy(chunk):
            copies.append(len(chunk))
            return real_copy(chunk)

        monkeypatch.setattr(_MutableChunk, "_grow", counting_grow)
        monkeypatch.setattr(_MutableChunk, "copy_rows", counting_copy)
        return grows, copies

    def test_single_inserts_grow_logarithmically_and_never_copy(
        self, tiny_collection, monkeypatch
    ):
        chunking = SRTreeChunker(leaf_capacity=12).form_chunks(tiny_collection)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        n_inserts = 4000
        monkeypatch.setattr(maintenance, "SPLIT_FACTOR", float("inf"))
        monkeypatch.setattr(maintenance, "MERGE_FRACTION", 0.0)
        m = ChunkIndexMaintainer(index)
        grows, copies = self._count_grows_and_copies(monkeypatch)
        anchor = tiny_collection.vectors[0]
        landed = {m.insert(50_000 + i, anchor + 1e-5 * i) for i in range(n_inserts)}
        assert landed == {next(iter(landed))}, "inserts meant for one chunk"
        assert m.stats.splits == 0
        start = grows[0][0]
        assert len(grows) <= int(np.ceil(np.log2((start + n_inserts) / start))) + 1
        for i in range(0, n_inserts, 3):
            m.delete(50_000 + i)
        assert copies == []

        m.to_index()
        assert len(copies) == m.n_chunks

    def test_apply_copies_nothing_and_checkpoint_copies_each_dirty_chunk_once(
        self, tiny_collection, tmp_path, monkeypatch
    ):
        chunking = SRTreeChunker(leaf_capacity=12).form_chunks(tiny_collection)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        with StreamingChunkIndex.create(str(tmp_path / "stream"), index) as streaming:
            _, copies = self._count_grows_and_copies(monkeypatch)
            rng = np.random.default_rng(23)
            for batch in range(4):
                ops = [
                    insert_op(60_000 + 10 * batch + i, rng.standard_normal(4) * 5.0)
                    for i in range(10)
                ]
                ops.append(delete_op(int(tiny_collection.ids[batch])))
                streaming.apply(ops)
            assert copies == []

            n_dirty = len(streaming.maintainer.dirty_positions())
            assert 0 < n_dirty
            streaming.checkpoint()
            assert len(copies) == n_dirty
            # Nothing is dirty now: a manifest is published without
            # copying a single member matrix.
            del copies[:]
            streaming.checkpoint()
            assert copies == []
