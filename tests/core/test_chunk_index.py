"""Tests for chunk-index building, access, and persistence."""

import numpy as np
import pytest
from hypothesis import settings

from repro.core.chunk import Chunk, ChunkSet
from repro.core.chunk_index import (
    ChunkIndex,
    InMemoryChunkStore,
    build_chunk_index,
)
from repro.faults.crash_states import STATES_PER_INTERVAL, record
from repro.storage.errors import CorruptFileError
from repro.storage.pages import PageGeometry
from repro.storage.records import RecordCodec

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``), where the torn-save check takes every state.
EXAMPLES = settings().max_examples // settings.get_profile("tier1").max_examples
STATE_CAP = STATES_PER_INTERVAL if EXAMPLES == 1 else None


@pytest.fixture()
def simple_index(tiny_collection):
    groups = [range(0, 20), range(20, 40), range(40, 60)]
    chunk_set = ChunkSet(
        tiny_collection, [Chunk.from_rows(tiny_collection, g) for g in groups]
    )
    return build_chunk_index(tiny_collection, chunk_set, name="test-index")


class TestBuild:
    def test_counts(self, simple_index):
        assert simple_index.n_chunks == 3
        assert simple_index.n_descriptors == 60

    def test_read_chunk_contents(self, simple_index, tiny_collection):
        ids, vectors = simple_index.read_chunk(1)
        assert list(ids) == list(range(20, 40))
        np.testing.assert_array_equal(vectors, tiny_collection.vectors[20:40])

    def test_read_chunk_out_of_range(self, simple_index):
        with pytest.raises(IndexError):
            simple_index.read_chunk(3)

    def test_page_layout_matches_on_disk_writer(self, simple_index):
        """Extents assigned at build time must equal what the chunk-file
        writer would produce (the simulated I/O depends on it)."""
        geometry = PageGeometry()
        codec = RecordCodec(simple_index.dimensions)
        next_page = 0
        for meta in simple_index.metas:
            expected_pages = geometry.pages_for(
                meta.n_descriptors * codec.record_bytes
            )
            assert meta.page_offset == next_page
            assert meta.page_count == expected_pages
            next_page += expected_pages

    def test_matrix_accessors(self, simple_index):
        assert simple_index.centroid_matrix().shape == (3, 4)
        assert simple_index.radius_vector().shape == (3,)
        lower, upper = simple_index.rectangle_matrices()
        assert lower.shape == upper.shape == (3, 4)
        for chunk_id in range(3):
            _, vectors = simple_index.read_chunk(chunk_id)
            np.testing.assert_array_equal(lower[chunk_id], vectors.min(axis=0))
            np.testing.assert_array_equal(upper[chunk_id], vectors.max(axis=0))
        assert list(simple_index.descriptor_counts()) == [20, 20, 20]
        assert simple_index.index_bytes > 0

    def test_store_size_mismatch_raises(self, simple_index):
        with pytest.raises(ValueError, match="store has"):
            ChunkIndex(
                metas=simple_index.metas,
                store=InMemoryChunkStore([(np.arange(1), np.ones((1, 4)))]),
                dimensions=4,
            )

    def test_empty_metas_raise(self):
        with pytest.raises(ValueError):
            ChunkIndex(metas=[], store=InMemoryChunkStore([]), dimensions=4)


class TestPersistence:
    def test_save_load_roundtrip(self, simple_index, tmp_path):
        directory = str(tmp_path / "idx")
        simple_index.save(directory)
        loaded = ChunkIndex.load(directory, dimensions=4)
        assert loaded.n_chunks == simple_index.n_chunks
        for chunk_id in range(simple_index.n_chunks):
            ids_a, vec_a = simple_index.read_chunk(chunk_id)
            ids_b, vec_b = loaded.read_chunk(chunk_id)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(vec_a, vec_b)
            meta_a = simple_index.metas[chunk_id]
            meta_b = loaded.metas[chunk_id]
            np.testing.assert_allclose(meta_a.centroid, meta_b.centroid)
            assert meta_a.radius == pytest.approx(meta_b.radius)
            # Member rectangles are float32-exact: stored without widening.
            assert meta_a.lower.tobytes() == meta_b.lower.tobytes()
            assert meta_a.upper.tobytes() == meta_b.upper.tobytes()
        loaded.close()

    def test_loaded_index_searchable(self, simple_index, tiny_collection, tmp_path):
        from repro.core.ground_truth import exact_knn
        from repro.core.search import ChunkSearcher

        directory = str(tmp_path / "idx2")
        simple_index.save(directory)
        loaded = ChunkIndex.load(directory, dimensions=4)
        query = tiny_collection.vectors[7].astype(float)
        result = ChunkSearcher(loaded).search(query, k=5)
        assert result.completed
        np.testing.assert_array_equal(
            result.neighbor_ids(), exact_knn(tiny_collection, query, 5)
        )
        loaded.close()


class TestCodeFileBinding:
    """A torn or stale save can never prune: codes are used only when they
    are bound to exactly the chunk file and index file beside them."""

    @staticmethod
    def other_index(tiny_collection):
        """Same shape as ``simple_index``, other members per chunk."""
        groups = [range(0, 60, 3), range(1, 60, 3), range(2, 60, 3)]
        chunk_set = ChunkSet(
            tiny_collection, [Chunk.from_rows(tiny_collection, g) for g in groups]
        )
        return build_chunk_index(tiny_collection, chunk_set)

    @staticmethod
    def assert_answers_brute_force(index, collection):
        from repro.core.ground_truth import exact_knn
        from repro.core.search import ChunkSearcher

        searcher = ChunkSearcher(index)
        for row in (0, 7, 31, 59):
            query = collection.vectors[row].astype(float) + 0.05
            result = searcher.search(query, k=5)
            assert result.completed
            np.testing.assert_array_equal(
                result.neighbor_ids(), exact_knn(collection, query, 5)
            )

    def test_saved_directory_has_bound_codes(self, simple_index, tiny_collection, tmp_path):
        simple_index.save(str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chunks.dat",
            "chunks.idx",
            "chunks.va",
        ]
        with ChunkIndex.load(str(tmp_path), 4) as loaded:
            assert loaded.codes is not None and len(loaded.codes) == 3
            self.assert_answers_brute_force(loaded, tiny_collection)

    @pytest.mark.parametrize("replaced", ["chunks.dat", "chunks.idx", "both"])
    def test_stale_codes_are_refused(self, simple_index, tiny_collection, tmp_path, replaced):
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        simple_index.save(str(ours))
        self.other_index(tiny_collection).save(str(theirs))
        for name in ("chunks.dat", "chunks.idx"):
            if replaced in (name, "both"):
                (ours / name).write_bytes((theirs / name).read_bytes())
        with pytest.raises(CorruptFileError, match="stale or torn save"):
            ChunkIndex.load(str(ours), 4)

    def test_deleted_codes_load_and_search_as_before(
        self, simple_index, tiny_collection, tmp_path
    ):
        simple_index.save(str(tmp_path))
        (tmp_path / "chunks.va").unlink()
        with ChunkIndex.load(str(tmp_path), 4) as loaded:
            assert loaded.codes is None
            self.assert_answers_brute_force(loaded, tiny_collection)

    @pytest.mark.parametrize("over_existing", [False, True])
    def test_save_killed_before_the_codes_are_published(
        self, simple_index, tiny_collection, tmp_path, monkeypatch, over_existing
    ):
        import repro.core.chunk_index as module

        if over_existing:
            self.other_index(tiny_collection).save(str(tmp_path))

        def killed(*args, **kwargs):
            raise KeyboardInterrupt("killed before the code file")

        monkeypatch.setattr(module, "write_code_file", killed)
        with pytest.raises(KeyboardInterrupt):
            simple_index.save(str(tmp_path))
        monkeypatch.undo()
        # The pair is the new one, whole; the old codes are gone, not stale.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chunks.dat", "chunks.idx"]
        with ChunkIndex.load(str(tmp_path), 4) as loaded:
            assert loaded.codes is None
            self.assert_answers_brute_force(loaded, tiny_collection)
            for chunk_id in range(3):
                np.testing.assert_array_equal(
                    loaded.read_chunk(chunk_id)[0], simple_index.read_chunk(chunk_id)[0]
                )

    def test_save_killed_inside_the_code_file_leaves_no_codes(
        self, simple_index, tmp_path, monkeypatch
    ):
        import repro.storage.code_file as code_file

        real_encode = code_file.encode_cells
        calls = []

        def dying_encode(*args):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt("killed mid code file")
            return real_encode(*args)

        monkeypatch.setattr(code_file, "encode_cells", dying_encode)
        with pytest.raises(KeyboardInterrupt):
            simple_index.save(str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chunks.dat", "chunks.idx"]

    def test_every_crash_state_of_a_save_leaves_no_codes_or_its_own(
        self, simple_index, tiny_collection, tmp_path
    ):
        """A save over an existing directory that dies part way leaves a
        directory without codes or with codes that are refused, never codes
        describing other chunks: checked on every crash state the
        persistence model allows for the save."""
        directory = tmp_path / "saved"
        self.other_index(tiny_collection).save(str(directory))
        with record(str(directory), None) as recording:
            simple_index.save(str(directory))
        outcomes = set()
        for number, state in enumerate(recording.enumerate_states(STATE_CAP, seed=0)):
            target = tmp_path / f"state-{number:05d}"
            target.mkdir()
            recording.materialise(state, str(target))
            if not (target / "chunks.va").exists():
                outcomes.add("no codes")
                continue
            try:
                loaded = ChunkIndex.load(str(target), 4)
            except CorruptFileError:
                outcomes.add("refused")
                continue
            with loaded:
                loaded.save(str(tmp_path / "resaved"))
            resaved = (tmp_path / "resaved" / "chunks.va").read_bytes()
            assert (target / "chunks.va").read_bytes() == resaved, recording.describe(state)
            outcomes.add("its own codes")
        assert outcomes >= {"no codes", "its own codes"}

    def test_a_failed_load_closes_what_it_opened(self, simple_index, tmp_path, monkeypatch):
        """A refused code file must not leak the chunk-file handle."""
        from repro.core.chunk_index import OnDiskChunkStore

        simple_index.save(str(tmp_path))
        with open(tmp_path / "chunks.va", "r+b") as f:
            f.write(b"XXXX")
        closed = []
        real_close = OnDiskChunkStore.close
        monkeypatch.setattr(
            OnDiskChunkStore, "close", lambda store: (closed.append(1), real_close(store))
        )
        with pytest.raises(CorruptFileError, match="magic"):
            ChunkIndex.load(str(tmp_path), 4)
        assert closed == [1]
