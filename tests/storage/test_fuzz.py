"""Failure-injection fuzzing of the binary file formats.

Random corruption of serialized bytes must surface as clean IOError /
ValueError exceptions (or a successful parse of coincidentally valid
bytes) — never as unhandled crashes or silent wrong shapes.
"""

import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunk import ChunkMeta
from repro.storage.collection_file import (
    read_collection_file,
    write_collection_file,
)
from repro.storage.index_file import read_index_file, write_index_file
from descriptors import from_vectors


def _index_metas(rng: np.random.Generator):
    """Six hand-built entries, each with its sphere's box for a rectangle."""
    metas = []
    for i in range(6):
        centroid = rng.standard_normal(5)
        radius = float(rng.random())
        metas.append(
            ChunkMeta(
                chunk_id=i,
                centroid=centroid,
                radius=radius,
                lower=centroid - radius,
                upper=centroid + radius,
                n_descriptors=5,
                page_offset=i,
                page_count=1,
            )
        )
    return metas


def _corrupt(data: bytes, position: int, new_byte: int) -> bytes:
    position %= max(1, len(data))
    return data[:position] + bytes([new_byte]) + data[position + 1 :]


@pytest.fixture(scope="module")
def collection_bytes(tmp_path_factory):
    rng = np.random.default_rng(0)
    collection = from_vectors(rng.standard_normal((30, 5)).astype(np.float32))
    path = tmp_path_factory.mktemp("fuzz") / "descriptors.dat"
    write_collection_file(str(path), collection)
    return path.read_bytes()


@pytest.fixture(scope="module")
def index_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "chunks.idx"
    write_index_file(str(path), _index_metas(np.random.default_rng(1)))
    return path.read_bytes()


class TestCollectionFileFuzz:
    @given(st.integers(0, 10**6), st.integers(0, 255))
    @settings(max_examples=80, deadline=None)
    def test_byte_flip_never_crashes(self, collection_bytes, position, new_byte):
        corrupted = _corrupt(collection_bytes, position, new_byte)
        try:
            loaded = read_collection_file(io.BytesIO(corrupted))
            # Parse succeeded: structure must still be coherent.
            assert loaded.vectors.shape[0] == loaded.ids.shape[0]
        except (IOError, ValueError):
            pass  # clean rejection is the expected failure mode

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_truncation_never_crashes(self, collection_bytes, cut):
        truncated = collection_bytes[: max(0, len(collection_bytes) - cut)]
        try:
            read_collection_file(io.BytesIO(truncated))
        except (IOError, ValueError):
            pass


class TestIndexFileFuzz:
    @given(st.integers(0, 10**6), st.integers(0, 255))
    @settings(max_examples=80, deadline=None)
    def test_byte_flip_never_crashes(self, index_bytes, position, new_byte):
        corrupted = _corrupt(index_bytes, position, new_byte)
        try:
            metas = read_index_file(io.BytesIO(corrupted))
            assert all(m.chunk_id == i for i, m in enumerate(metas))
        except (IOError, ValueError, OverflowError):
            pass


# ---------------------------------------------------------------------------
# Seeded byte-level mutation of every reader
# ---------------------------------------------------------------------------
#
# One valid artefact per reader, then a fixed-seed stream of mutations.  A
# read of damaged bytes may succeed (the damage hit padding, or produced
# coincidentally valid bytes) or raise CorruptFileError / ChecksumError —
# nothing else: no ValueError out of a dataclass, no MemoryError from a
# header-sized allocation, no zipfile or OS error from a seek.

_MUTATION_TRIALS = 300
_MUTATION_SEED = 2005

#: Eight-byte values a splice drops in: the extremes of the integer and
#: float fields the formats carry.  ``None`` draws eight random bytes.
_SPLICE_VALUES = (
    None,
    b"\xff" * 8,
    b"\x00" * 8,
    (2**63 - 1).to_bytes(8, "little"),
    (0xFFFFFFF0).to_bytes(4, "little") * 2,
    np.float64(np.nan).tobytes(),
    np.float64(np.inf).tobytes(),
    np.float64(-1.0).tobytes(),
)


def _mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One of: bit flip, truncation, 8-byte splice, header-byte overwrite."""
    kind = int(rng.integers(4))
    if kind == 0:
        position = int(rng.integers(len(data)))
        flipped = data[position] ^ (1 << int(rng.integers(8)))
        return data[:position] + bytes([flipped]) + data[position + 1 :]
    if kind == 1:
        return data[: int(rng.integers(len(data)))]
    if kind == 2:
        value = _SPLICE_VALUES[int(rng.integers(len(_SPLICE_VALUES)))]
        if value is None:
            value = rng.bytes(8)
        position = int(rng.integers(max(1, len(data) - 8)))
        return data[:position] + value + data[position + 8 :]
    position = int(rng.integers(min(64, len(data))))
    return data[:position] + rng.bytes(1) + data[position + 1 :]


def _mutation_collection(rng: np.random.Generator):
    return from_vectors(rng.standard_normal((40, 5)).astype(np.float32))


def _collection_artefact(directory, rng):
    path = directory / "collection.dat"
    write_collection_file(str(path), _mutation_collection(rng))
    return [path], lambda: read_collection_file(str(path))


def _index_artefact(directory, rng):
    path = directory / "chunks.idx"
    write_index_file(str(path), _index_metas(rng))
    return [path], lambda: read_index_file(str(path))


def _chunk_file_artefact(directory, rng):
    from repro.chunking.srtree_chunker import SRTreeChunker
    from repro.core.chunk_index import ChunkIndex, build_chunk_index

    collection = _mutation_collection(rng)
    chunking = SRTreeChunker(leaf_capacity=8).form_chunks(collection)
    build_chunk_index(chunking.retained, chunking.chunk_set).save(str(directory))

    def read():
        with ChunkIndex.load(str(directory), collection.dimensions) as index:
            for chunk_id in range(index.n_chunks):
                index.read_chunk(chunk_id)

    return [directory / "base-000000.dat", directory / "base-000000.idx"], read


def _code_file_artefact(directory, rng):
    """The code file of a saved index; reading it is loading the index
    (header, binding and length checks) and consulting every block."""
    from repro.chunking.srtree_chunker import SRTreeChunker
    from repro.core.chunk_index import ChunkIndex, build_chunk_index
    from repro.core.search import ChunkSearcher

    collection = _mutation_collection(rng)
    chunking = SRTreeChunker(leaf_capacity=8).form_chunks(collection)
    build_chunk_index(chunking.retained, chunking.chunk_set).save(str(directory))
    query = rng.standard_normal(collection.dimensions)

    def read():
        with ChunkIndex.load(str(directory), collection.dimensions) as index:
            searcher = ChunkSearcher(index)
            for chunk_id in range(index.n_chunks):
                searcher.code_bound(query, chunk_id)

    return [directory / "base-000000.va"], read


def _delta_artefact(directory, rng):
    from repro.storage.delta import DeltaPackReader, DeltaSection, write_delta_pack

    path = directory / "delta.pack"
    vectors = rng.standard_normal((7, 5)).astype(np.float32)
    sections = [
        DeltaSection(3, rng.random(21) < 0.7, np.arange(100, 107), vectors),
        DeltaSection(-1, None, np.arange(200, 204), vectors[:4]),
        DeltaSection(0, rng.random(9) < 0.5, np.zeros(0, dtype=np.int64), vectors[:0]),
    ]
    write_delta_pack(str(path), 5, len(sections), iter(sections))

    def read():
        with DeltaPackReader(str(path), 5) as reader:
            for number in range(len(reader)):
                reader.read_section(number)

    return [path], read


def _wal_artefact(directory, rng):
    from repro.storage.wal import WalWriter, delete_op, insert_op, scan_wal

    path = directory / "ingest.wal"
    with WalWriter.create(str(path), dimensions=5) as writer:
        for batch in range(4):
            writer.append_batch(
                [
                    insert_op(10 * batch + i, rng.standard_normal(5).astype(np.float32))
                    for i in range(3)
                ]
                + [delete_op(10 * batch)]
            )
    return [path], lambda: scan_wal(str(path))


def _saved_system(directory, rng):
    """A retrieval system saved into ``directory`` and a query for it."""
    from repro.system import ImageRetrievalSystem

    collection = _mutation_collection(rng)
    with ImageRetrievalSystem() as system:
        system.index_images(collection)
        system.save(str(directory))
    return rng.standard_normal(collection.dimensions)


def _system_artefact(directory, rng):
    """A saved retrieval system's system file; reading it is loading it."""
    from repro.system import ImageRetrievalSystem

    _saved_system(directory, rng)

    def read():
        ImageRetrievalSystem.load(str(directory)).close()

    return [directory / "base-000000.sys"], read


def _saved_manifest_artefact(directory, rng):
    """A saved retrieval system's manifest; reading it is loading the
    system and answering one exact query."""
    from repro.core.ingest import MANIFEST_NAME
    from repro.system import ImageRetrievalSystem

    query = _saved_system(directory, rng)

    def read():
        with ImageRetrievalSystem.load(str(directory)) as system:
            system.find_similar_descriptors(query, exact=True)

    return [directory / MANIFEST_NAME], read


def _manifest_artefact(directory, rng):
    """A streaming index's manifest (a checkpoint pack and replayable WAL
    batches beside it); reading it is ``StreamingChunkIndex.open`` on a
    copy, after ``verify_streaming_index`` — which must not raise, and must
    not report ok for a directory ``open`` refuses."""
    from repro.chunking.srtree_chunker import SRTreeChunker
    from repro.core.chunk_index import build_chunk_index
    from repro.core.ingest import (
        MANIFEST_NAME,
        StreamingChunkIndex,
        verify_streaming_index,
    )
    from repro.storage.errors import CorruptFileError
    from repro.storage.wal import delete_op, insert_op

    collection = _mutation_collection(rng)
    chunking = SRTreeChunker(leaf_capacity=8).form_chunks(collection)
    stream = directory / "stream"
    index = build_chunk_index(chunking.retained, chunking.chunk_set)
    with StreamingChunkIndex.create(str(stream), index) as streaming:
        arrivals = rng.standard_normal((6, 5)).astype(np.float32)
        streaming.apply([insert_op(100 + i, v) for i, v in enumerate(arrivals[:3])])
        streaming.apply([delete_op(int(collection.ids[0]))])
        streaming.checkpoint()
        streaming.apply([insert_op(200 + i, v) for i, v in enumerate(arrivals[3:])])
    # The version-3 fields are what the mutations land in: no page extent
    # and no allocation frontier is recorded.
    manifest = json.loads((stream / MANIFEST_NAME).read_text())
    assert manifest["version"] == 3 and "next_page" not in manifest
    assert {tuple(sorted(chunk)) for chunk in manifest["chunks"]} == {
        ("base_ref", "centroid", "delta", "n_descriptors", "radius")
    }
    assert any(chunk["delta"] is not None for chunk in manifest["chunks"])

    def read():
        report = verify_streaming_index(str(stream))
        copy = directory / "copy"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(stream, copy)  # open repairs what it recovers
        try:
            StreamingChunkIndex.open(str(copy)).close()
        except CorruptFileError:
            assert not report["ok"], "verify passed a directory open refuses"
            raise

    return [stream / MANIFEST_NAME], read


@pytest.mark.parametrize(
    "make_artefact",
    [
        _collection_artefact,
        _index_artefact,
        _chunk_file_artefact,
        _code_file_artefact,
        _delta_artefact,
        _wal_artefact,
        _system_artefact,
        _saved_manifest_artefact,
        _manifest_artefact,
    ],
    ids=[
        "collection",
        "index",
        "chunk-file",
        "code-file",
        "delta-pack",
        "wal",
        "system",
        "saved-manifest",
        "manifest",
    ],
)
def test_mutated_bytes_raise_only_corrupt_file_error(tmp_path, make_artefact):
    from repro.storage.errors import CorruptFileError

    rng = np.random.default_rng(_MUTATION_SEED)
    paths, read = make_artefact(tmp_path, rng)
    pristine = [path.read_bytes() for path in paths]
    read()  # the undamaged artefact reads back
    escaped = {}
    for trial in range(_MUTATION_TRIALS):
        victim = trial % len(paths)
        paths[victim].write_bytes(_mutate(pristine[victim], rng))
        try:
            read()
        except CorruptFileError:  # ChecksumError is a subclass
            pass
        except Exception as exc:  # MemoryError included
            escaped.setdefault(f"{type(exc).__name__}: {exc}"[:120], trial)
        paths[victim].write_bytes(pristine[victim])
    assert not escaped, f"{len(escaped)} kinds of non-corruption errors: {escaped}"
