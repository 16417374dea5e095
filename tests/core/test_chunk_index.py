"""Tests for chunk-index building, access, and persistence."""

import json

import numpy as np
import pytest
from hypothesis import settings

from repro.core.chunk import Chunk, ChunkSet
from repro.core.chunk_index import (
    ChunkIndex,
    InMemoryChunkStore,
    build_chunk_index,
)
from repro.core.ingest import MANIFEST_NAME, verify_streaming_index
from repro.faults.crash_states import STATES_PER_INTERVAL, record
from repro.storage.errors import CorruptFileError
from repro.storage.pages import PageGeometry
from repro.storage.records import RecordCodec
from repro.system import ImageRetrievalSystem

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``), where the crash-state check takes every state.
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


class TestOneLayout:
    """A saved index is a generation of the streaming-index format: an
    empty WAL, no packs, committed by the manifest flip."""

    def test_saving_over_a_directory_publishes_a_higher_generation(
        self, simple_index, tmp_path
    ):
        simple_index.save(str(tmp_path))
        (tmp_path / "wal-000004.log").write_bytes(b"an orphan")
        simple_index.save(str(tmp_path))
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["generation"] == manifest["checkpoint"] == 5
        assert manifest["packs"] == [] and manifest["next_batch_seq"] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            MANIFEST_NAME,
            "base-000005.dat",
            "base-000005.idx",
            "base-000005.va",
            "wal-000005.log",
        ]
        assert verify_streaming_index(str(tmp_path))["ok"]

    def test_a_directory_without_a_manifest_is_refused_whole(self, simple_index, tmp_path):
        simple_index.save(str(tmp_path))
        for path in tmp_path.iterdir():
            path.rename(tmp_path / path.name.replace("base-000000", "chunks"))
        (tmp_path / MANIFEST_NAME).unlink()
        with pytest.raises(CorruptFileError, match="no index manifest"):
            ChunkIndex.load(str(tmp_path), 4)

    @pytest.mark.parametrize("change", ["logged", "checkpointed"])
    def test_streamed_changes_point_at_the_streaming_open(
        self, simple_index, tiny_collection, tmp_path, change
    ):
        from repro.core.ingest import StreamingChunkIndex
        from repro.storage.wal import delete_op

        simple_index.save(str(tmp_path))
        with StreamingChunkIndex.open(str(tmp_path)) as streaming:
            streaming.apply([delete_op(int(tiny_collection.ids[0]))])
            if change == "checkpointed":
                streaming.checkpoint()
        with pytest.raises(CorruptFileError, match="StreamingChunkIndex.open"):
            ChunkIndex.load(str(tmp_path), 4)
        with StreamingChunkIndex.open(str(tmp_path)) as streaming:
            assert streaming.n_descriptors == 59

    def test_other_dimensions_are_a_caller_error(self, simple_index, tmp_path):
        simple_index.save(str(tmp_path))
        with pytest.raises(ValueError, match="holds 4-d descriptors"):
            ChunkIndex.load(str(tmp_path), 5)


class TestCodeFileBinding:
    """Stale codes can never prune: codes are used only when they are
    bound to exactly the chunk file and index file beside them."""

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
            "MANIFEST.json",
            "base-000000.dat",
            "base-000000.idx",
            "base-000000.va",
            "wal-000000.log",
        ]
        with ChunkIndex.load(str(tmp_path), 4) as loaded:
            assert loaded.codes is not None and len(loaded.codes) == 3
            self.assert_answers_brute_force(loaded, tiny_collection)

    @pytest.mark.parametrize("replaced", ["dat", "idx", "both"])
    def test_stale_codes_are_refused(self, simple_index, tiny_collection, tmp_path, replaced):
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        simple_index.save(str(ours))
        self.other_index(tiny_collection).save(str(theirs))
        for kind in ("dat", "idx"):
            if replaced in (kind, "both"):
                name = f"base-000000.{kind}"
                (ours / name).write_bytes((theirs / name).read_bytes())
        with pytest.raises(CorruptFileError, match="stale or torn save"):
            ChunkIndex.load(str(ours), 4)

    def test_deleted_codes_load_and_search_as_before(
        self, simple_index, tiny_collection, tmp_path
    ):
        simple_index.save(str(tmp_path))
        (tmp_path / "base-000000.va").unlink()
        with ChunkIndex.load(str(tmp_path), 4) as loaded:
            assert loaded.codes is None
            self.assert_answers_brute_force(loaded, tiny_collection)

    def test_a_failed_load_closes_what_it_opened(self, simple_index, tmp_path, monkeypatch):
        """A refused code file must not leak the chunk-file handle."""
        from repro.core.chunk_index import OnDiskChunkStore

        simple_index.save(str(tmp_path))
        with open(tmp_path / "base-000000.va", "r+b") as f:
            f.write(b"XXXX")
        closed = []
        real_close = OnDiskChunkStore.close
        monkeypatch.setattr(
            OnDiskChunkStore, "close", lambda store: (closed.append(1), real_close(store))
        )
        with pytest.raises(CorruptFileError, match="magic"):
            ChunkIndex.load(str(tmp_path), 4)
        assert closed == [1]


class TestCrashStates:
    """Every crash state of a save opens as the old directory or the new
    one and answers bit-identically to it, or is refused with
    ``CorruptFileError``: no state loads and then fails."""

    @staticmethod
    def answers(system, queries):
        """Descriptor ids and image votes, read while ``system`` is open."""
        with system:
            batch = system.find_similar_descriptors_batch(queries, k=5)
            return (
                [result.neighbor_ids().tolist() for result in batch],
                [system.find_similar_images(queries[i : i + 5]) for i in (0, 5)],
            )

    @staticmethod
    def save_updated_system(directory, image_collection):
        """A system saved over its own directory after a live update."""
        with ImageRetrievalSystem(default_stop_chunks=4) as system:
            system.index_images(image_collection)
            system.save(str(directory))
        rng = np.random.default_rng(3)
        with ImageRetrievalSystem.load(str(directory)) as loaded:
            loaded.add_image(8, 5.0 + rng.standard_normal((25, 6)))
            loaded.remove_image(0)
            yield
            loaded.save(str(directory))

    @staticmethod
    def build_over_another_build(directory, image_collection):
        """``repro build`` into a directory that holds another build."""
        from repro.cli import main
        from repro.storage.collection_file import write_collection_file

        collection = directory.parent / "collection.dat"
        write_collection_file(str(collection), image_collection)
        assert main(["build", str(collection), str(directory), "--chunk-size", "64"]) == 0
        yield
        assert main(["build", str(collection), str(directory), "--chunk-size", "16"]) == 0

    @pytest.mark.parametrize(
        "scenario", ["save_updated_system", "build_over_another_build"]
    )
    def test_every_crash_state_opens_as_old_or_new_or_is_refused(
        self, image_collection, tmp_path, scenario
    ):
        directory = tmp_path / "saved"
        queries = image_collection.vectors[::20].astype(np.float64) + 0.05
        steps = getattr(self, scenario)(directory, image_collection)
        next(steps)
        old = self.answers(ImageRetrievalSystem.load(str(directory)), queries)
        with record(str(directory), None) as recording:
            next(steps, None)
        new = self.answers(ImageRetrievalSystem.load(str(directory)), queries)
        assert old != new
        outcomes = {}
        for number, state in enumerate(recording.enumerate_states(STATE_CAP, seed=0)):
            target = tmp_path / f"state-{number:05d}"
            target.mkdir()
            recording.materialise(state, str(target))
            try:
                system = ImageRetrievalSystem.load(str(target))
            except CorruptFileError:
                outcomes.setdefault("refused", recording.describe(state))
                continue
            # Queries run outside the try: a state that loads and then
            # fails (a ChecksumError mid-search) fails the test.
            got = self.answers(system, queries)
            assert got in (old, new), recording.describe(state)
            outcomes.setdefault("old" if got == old else "new", recording.describe(state))
        assert {"old", "new"} <= set(outcomes), outcomes
