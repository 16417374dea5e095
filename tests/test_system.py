"""Tests for the end-to-end image retrieval system facade."""

import numpy as np
import pytest

from repro.chunking.round_robin import RoundRobinChunker
from repro.core.chunk_index import ChunkIndex, OnDiskChunkStore
from repro.core.dataset import DescriptorCollection
from repro.core.maintenance import ChunkIndexMaintainer
from repro.core.search import ChunkSearcher
from repro.storage.pages import PageGeometry
from repro.storage.records import RecordCodec
from repro.system import ImageRetrievalSystem


@pytest.fixture()
def system(image_collection):
    s = ImageRetrievalSystem(default_stop_chunks=4)
    s.index_images(image_collection)
    return s


class TestBuild:
    def test_counts(self, system, image_collection):
        assert system.n_descriptors == len(image_collection)
        assert system.n_images == 8

    def test_unbuilt_rejects_queries(self):
        s = ImageRetrievalSystem()
        with pytest.raises(RuntimeError, match="index images first"):
            s.find_similar_descriptors(np.zeros(6))
        with pytest.raises(RuntimeError):
            s.add_image(0, np.zeros((1, 6)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ImageRetrievalSystem().index_images(DescriptorCollection.empty(6))

    def test_custom_chunker(self, image_collection):
        s = ImageRetrievalSystem(chunker=RoundRobinChunker(n_chunks=7))
        s.index_images(image_collection)
        assert s.n_descriptors == len(image_collection)

    def test_validation(self):
        with pytest.raises(ValueError):
            ImageRetrievalSystem(default_stop_chunks=0)


class TestQueries:
    def test_descriptor_search(self, system, image_collection):
        result = system.find_similar_descriptors(
            image_collection.vectors[3].astype(float), k=5, exact=True
        )
        assert result.neighbor_ids()[0] == 3
        assert result.completed

    def test_approximate_by_default(self, system, image_collection):
        result = system.find_similar_descriptors(
            image_collection.vectors[3].astype(float), k=5
        )
        assert result.chunks_read <= 4

    def test_image_search_finds_source(self, system, image_collection):
        rows = np.flatnonzero(image_collection.image_ids == 5)[:10]
        matches = system.find_similar_images(
            image_collection.vectors[rows].astype(float)
        )
        assert matches[0].image_id == 5

    def test_one_searcher_per_index_generation(
        self, system, image_collection, monkeypatch
    ):
        """One ``ChunkSearcher`` per index generation, whatever mix of
        descriptor, batch and image queries runs against it; a live update
        publishes the next generation and with it the next searcher."""
        built = []
        real_init = ChunkSearcher.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(ChunkSearcher, "__init__", counting_init)
        queries = image_collection.vectors[:4].astype(float)
        for _ in range(3):
            system.find_similar_descriptors(queries[0], k=5)
            system.find_similar_descriptors_batch(queries, k=5)
            system.find_similar_images(queries)
            system.find_similar_images(queries, max_match_distance=0.5)
        assert len(built) == 1

        system.add_image(99, image_collection.vectors[:3] + 0.01)
        for _ in range(3):
            system.find_similar_descriptors(queries[0], k=5)
            system.find_similar_images(queries)
        assert len(built) == 2
        assert built[1].index is not built[0].index


class TestLiveUpdates:
    def test_add_then_find(self, system):
        rng = np.random.default_rng(3)
        new_image = 100.0 + 0.1 * rng.standard_normal((12, 6))
        assert system.add_image(99, new_image) == 12
        assert system.n_images == 9
        matches = exact_images(system, new_image[:5])
        assert matches[0].image_id == 99

    def test_remove_image(self, system, image_collection):
        system.remove_image(2)
        assert system.n_images == 7
        assert system.n_descriptors == len(image_collection) - 25
        rows = np.flatnonzero(image_collection.image_ids == 2)[:5]
        matches = exact_images(system, image_collection.vectors[rows].astype(float))
        assert all(match.image_id != 2 for match in matches)

    def test_remove_missing_image(self, system):
        with pytest.raises(KeyError):
            system.remove_image(12345)

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "1e39"]
    )
    def test_non_finite_descriptor_refuses_the_whole_image(self, system, value):
        """The bad descriptor is the third: none of the image is inserted,
        and every later search still runs.  A float64 1e39 is past
        float32's maximum: cast, it is inf."""
        rng = np.random.default_rng(4)
        image = 100.0 + 0.1 * rng.standard_normal((5, 6))
        image[2, 3] = value
        n_descriptors, n_images = system.n_descriptors, system.n_images
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            system.add_image(99, image)
        assert (system.n_descriptors, system.n_images) == (n_descriptors, n_images)
        system.find_similar_descriptors(image[0], k=3)
        assert system.add_image(99, image[[0, 1, 3, 4]]) == 4
        assert system.n_descriptors == n_descriptors + 4
        system.find_similar_descriptors(image[0], k=3)

    def test_add_empty_image_rejected(self, system):
        with pytest.raises(ValueError):
            system.add_image(50, np.empty((0, 6)))


class TestPersistence:
    def test_save_load_roundtrip(self, system, image_collection, tmp_path):
        directory = str(tmp_path / "retrieval")
        query_rows = np.flatnonzero(image_collection.image_ids == 4)[:8]
        query = image_collection.vectors[query_rows].astype(float)
        before = exact_images(system, query)

        system.save(directory)
        with ImageRetrievalSystem.load(directory) as loaded:
            assert loaded.n_descriptors == system.n_descriptors
            assert loaded.n_images == system.n_images
            after = exact_images(loaded, query)
        assert [m.image_id for m in before] == [m.image_id for m in after]
        assert [m.votes for m in before] == [m.votes for m in after]

    def test_wrong_width_image_leaves_the_loaded_generation_serving(
        self, system, image_collection, tmp_path
    ):
        """A 5-d image on a 6-d loaded system is refused before the update
        starts: no maintainer is made, and the saved generation stays open
        and answers the next query as it did before."""
        directory = str(tmp_path / "retrieval3")
        system.save(directory)
        query = image_collection.vectors[3].astype(float)
        with ImageRetrievalSystem.load(directory) as loaded:
            generation = loaded._index
            before = loaded.find_similar_descriptors(query, k=5, exact=True)
            with pytest.raises(ValueError) as refused:
                loaded.add_image(99, np.zeros((3, 5)))
            assert loaded._maintainer is None
            assert loaded._index is generation
            assert "5-d descriptors" in str(refused.value)
            after = loaded.find_similar_descriptors(query, k=5, exact=True)
        assert after.neighbors == before.neighbors
        assert after.elapsed_s == before.elapsed_s

    def test_load_then_update(self, system, tmp_path):
        directory = str(tmp_path / "retrieval2")
        system.save(directory)
        with ImageRetrievalSystem.load(directory) as loaded:
            rng = np.random.default_rng(1)
            loaded.add_image(77, 50.0 + rng.standard_normal((5, 6)))
            assert loaded.n_images == system.n_images + 1


class TestMaintainedPersistence:
    def test_save_after_maintenance_compacts(self, system, tmp_path):
        """A system that accumulated relocation holes persists fine; the
        saved layout is compacted (regression test for the layout-drift
        failure)."""
        rng = np.random.default_rng(8)
        for i in range(3):
            system.add_image(200 + i, 20.0 + rng.standard_normal((30, 6)))
        system.remove_image(0)
        directory = str(tmp_path / "maintained")
        system.save(directory)
        with ImageRetrievalSystem.load(directory) as loaded:
            assert loaded.n_descriptors == system.n_descriptors
            offset = 0
            for meta in loaded._index.metas:
                assert meta.page_offset == offset
                offset += meta.page_count


def assert_same_answers(got, want, queries):
    """Two systems answer every kind of query identically: ids, distances,
    stop reasons, simulated time and every trace event; image matches with
    and without verified voting."""
    for exact in (False, True):
        for query in queries:
            a = got.find_similar_descriptors(query, k=5, exact=exact)
            b = want.find_similar_descriptors(query, k=5, exact=exact)
            assert a.neighbors == b.neighbors
            assert a.stop_reason == b.stop_reason
            assert a.elapsed_s == b.elapsed_s
            assert a.trace.events == b.trace.events
        a = got.find_similar_descriptors_batch(queries, k=5, exact=exact)
        b = want.find_similar_descriptors_batch(queries, k=5, exact=exact)
        for one, other in zip(a, b):
            assert one.stop_reason == other.stop_reason
            assert one.neighbors == other.neighbors
            assert one.elapsed_s == other.elapsed_s
            assert one.trace.events == other.trace.events
        images = exact_images if exact else ImageRetrievalSystem.find_similar_images
        for cutoff in (None, 0.5):
            assert images(got, queries, max_match_distance=cutoff) == images(
                want, queries, max_match_distance=cutoff
            )


def exact_images(system, queries, **kwargs):
    """``find_similar_images`` with every descriptor search run to exact
    completion: the system's chunk budget lifted for the call."""
    budget, system.default_stop_chunks = system.default_stop_chunks, None
    try:
        return system.find_similar_images(queries, **kwargs)
    finally:
        system.default_stop_chunks = budget


def paged_system_after_a_page_round_trip():
    """A 64-d system whose chunks span pages, one of them grown past a page
    boundary with ``add_image`` and shrunk back with ``remove_image``; and
    queries that read that chunk."""
    rng = np.random.default_rng(64)
    centers = rng.uniform(0, 10, size=(20, 64))
    collection = DescriptorCollection(
        vectors=np.vstack(
            [c + 0.5 * rng.standard_normal((50, 64)) for c in centers]
        ).astype(np.float32),
        ids=np.arange(1000),
        image_ids=np.repeat(np.arange(20), 50),
    )
    system = ImageRetrievalSystem(default_stop_chunks=4)
    system.index_images(collection)
    two_pages = 2 * PageGeometry().page_bytes // RecordCodec(64).record_bytes
    chunk = max(
        (m for m in system._current_index().metas if m.page_count == 2),
        key=lambda m: m.n_descriptors,
    )
    n_extra = two_pages + 1 - chunk.n_descriptors
    system.add_image(99, chunk.centroid + 1e-3 * rng.standard_normal((n_extra, 64)))
    assert system._current_index().metas[chunk.chunk_id].page_count == 3
    system.remove_image(99)
    queries = np.vstack([chunk.centroid, collection.vectors[::150] + 0.05])
    return system, queries


class TestOneIndexLifecycle:
    """The system searches the index it built or loaded: no load-time copy,
    files left open, the maintainer created by the first live update."""

    @pytest.fixture()
    def queries(self, image_collection):
        return image_collection.vectors[::23].astype(float) + 0.05

    def test_load_reads_no_chunk_and_keeps_the_codes(
        self, system, queries, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "saved")
        system.save(directory)
        reads = []
        real_read = OnDiskChunkStore.read_chunk

        def counting_read(self, chunk_id):
            reads.append(chunk_id)
            return real_read(self, chunk_id)

        monkeypatch.setattr(OnDiskChunkStore, "read_chunk", counting_read)
        with ImageRetrievalSystem.load(directory) as loaded:
            assert reads == []
            assert isinstance(loaded._index.store, OnDiskChunkStore)
            assert loaded._index.codes is not None
            assert loaded._maintainer is None
            loaded.find_similar_descriptors(queries[0], exact=True)
            assert reads  # the query is served from the saved files

    def test_loaded_system_answers_like_the_one_that_saved_it(
        self, system, queries, tmp_path
    ):
        """Built, and updated across a page boundary and back: the pages a
        chunk is charged do not change across ``save`` + ``load``."""
        paged = paged_system_after_a_page_round_trip()
        for number, (saved, asked) in enumerate([(system, queries), paged]):
            directory = str(tmp_path / f"saved-{number}")
            saved.save(directory)
            with ImageRetrievalSystem.load(directory) as loaded:
                assert loaded.n_descriptors == saved.n_descriptors
                assert loaded.n_images == saved.n_images
                assert_same_answers(loaded, saved, asked)

    def test_update_closes_the_loaded_files_and_saves_over_them(
        self, system, queries, tmp_path
    ):
        directory = str(tmp_path / "saved")
        system.save(directory)
        with ImageRetrievalSystem.load(directory) as loaded:
            previous = loaded._index
            loaded.add_image(99, queries[:3] + 0.01)
            with pytest.raises(ValueError, match="closed"):
                previous.read_chunk(0)
            with pytest.raises(ValueError, match="closed"):
                previous.codes.read_block(0)
            loaded.save(directory)
            with ImageRetrievalSystem.load(directory) as reloaded:
                assert reloaded.n_images == system.n_images + 1
                assert_same_answers(reloaded, loaded, queries)

    def test_close_releases_the_files(self, system, queries, tmp_path):
        directory = str(tmp_path / "saved")
        system.save(directory)
        loaded = ImageRetrievalSystem.load(directory)
        index = loaded._index
        loaded.close()
        with pytest.raises(ValueError, match="closed"):
            index.read_chunk(0)
        with pytest.raises(RuntimeError, match="index images first"):
            loaded.find_similar_descriptors(queries[0])

    def test_updates_after_load_match_the_copying_lifecycle(
        self, system, queries, tmp_path
    ):
        """load -> add_image -> remove_image -> save writes the bytes the
        previous lifecycle did: maintainer over the loaded index from the
        start, its snapshot saved (``test_save_after_maintenance_compacts``'
        fixture)."""
        directory = str(tmp_path / "saved")
        system.save(directory)
        rng = np.random.default_rng(8)
        images = [20.0 + rng.standard_normal((30, 6)) for _ in range(3)]

        with ChunkIndex.load(directory, 6) as index:
            maintainer = ChunkIndexMaintainer(index)
        next_id = system.n_descriptors
        for image in images:
            for vector in image.astype(np.float32):
                maintainer.insert(next_id, vector)
                next_id += 1
        for descriptor_id in range(25):  # image 0
            maintainer.delete(descriptor_id)
        reference = str(tmp_path / "reference")
        maintainer.to_index().save(reference)

        updated = str(tmp_path / "updated")
        with ImageRetrievalSystem.load(directory) as loaded:
            for i, image in enumerate(images):
                loaded.add_image(200 + i, image)
            loaded.remove_image(0)
            loaded.save(updated)
            with ImageRetrievalSystem.load(updated) as reloaded:
                assert reloaded.n_descriptors == 200 + 90 - 25
                assert_same_answers(reloaded, loaded, queries)
        for name in ("base-000000.dat", "base-000000.idx", "base-000000.va"):
            assert (tmp_path / "updated" / name).read_bytes() == (
                tmp_path / "reference" / name
            ).read_bytes(), name
