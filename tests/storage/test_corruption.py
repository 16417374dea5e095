"""Corruption coverage: bit flips, truncations, crash remnants, and the
atomic-write machinery across all three file formats."""

import os
import struct

import numpy as np
import pytest

from repro.core.chunk import ChunkMeta
from repro.storage.atomic import atomic_output
from repro.storage.chunk_file import CHUNK_MAGIC, ChunkFileReader, write_chunk_file
from repro.storage.collection_file import (
    read_collection_file,
    write_collection_file,
)
from repro.storage.errors import ChecksumError, CorruptFileError
from repro.storage.index_file import read_index_file, write_index_file
from repro.storage.pages import PageGeometry
from repro.storage.records import RecordCodec
from descriptors import from_vectors


def chunk_data(n, dims, offset=0):
    ids = np.arange(offset, offset + n)
    vectors = np.arange(n * dims, dtype=np.float32).reshape(n, dims) + offset
    return ids, vectors


def write_v2(path, n_chunks=3, dims=4, page_bytes=256):
    geometry = PageGeometry(page_bytes)
    chunks = (chunk_data(10, dims, i * 100) for i in range(n_chunks))
    extents, _ = write_chunk_file(path, dims, chunks, geometry)
    return extents, geometry


def flip_bit(path, byte_offset, bit=0):
    with open(path, "r+b") as f:
        f.seek(byte_offset)
        value = f.read(1)[0]
        f.seek(byte_offset)
        f.write(bytes([value ^ (1 << bit)]))


class TestChunkFileCorruption:
    def test_payload_bit_flip_detected(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        extents, geometry = write_v2(path)
        # Flip one bit inside the second chunk's payload (data region
        # starts at physical page 1).
        flip_bit(path, 256 * (1 + extents[1].page_offset) + 17, bit=3)
        with ChunkFileReader(path, dimensions=4, geometry=geometry) as reader:
            ids, _ = reader.read_chunk(extents[0])  # untouched chunk is fine
            np.testing.assert_array_equal(ids, np.arange(10))
            with pytest.raises(ChecksumError, match="CRC32"):
                reader.read_chunk(extents[1])
            ids, _ = reader.read_chunk(extents[2])  # later chunks still fine
            np.testing.assert_array_equal(ids, np.arange(200, 210))

    def test_padding_bit_flip_is_harmless(self, tmp_path):
        """Only the payload is checksummed — damage to the page padding
        (never decoded) must not fail reads."""
        path = str(tmp_path / "chunks.dat")
        extents, geometry = write_v2(path, n_chunks=1)
        # 10 records x 20 bytes = 200 payload bytes; flip inside padding.
        flip_bit(path, 256 * 1 + 230)
        with ChunkFileReader(path, dimensions=4, geometry=geometry) as reader:
            ids, _ = reader.read_chunk(extents[0])
        np.testing.assert_array_equal(ids, np.arange(10))

    def test_mid_chunk_truncation_detected(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        extents, geometry = write_v2(path)
        # Cut inside the last chunk: its pages (and the CRC table) vanish.
        with open(path, "r+b") as f:
            f.truncate(256 * (1 + extents[2].page_offset) + 50)
        with pytest.raises(CorruptFileError):
            ChunkFileReader(path, dimensions=4, geometry=geometry)

    def test_unfinalized_file_rejected(self, tmp_path):
        """The header is written with table_page=0 and patched last; a file
        whose header was never patched must be refused rather than decoded."""
        path = str(tmp_path / "chunks.dat")
        _, geometry = write_v2(path, n_chunks=1)
        # table_page is the last uint64 of the header.
        with open(path, "r+b") as f:
            f.seek(struct.calcsize("<8sIIIIQ"))
            f.write(struct.pack("<Q", 0))
        with pytest.raises(CorruptFileError, match="finalized"):
            ChunkFileReader(path, dimensions=4, geometry=geometry)

    def test_corrupt_table_page_pointer_rejected(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        _, geometry = write_v2(path, n_chunks=1)
        # table_page is the last uint64 of the header.
        table_page_offset = struct.calcsize("<8sIIII")
        with open(path, "r+b") as f:
            f.seek(table_page_offset + 8)
            f.write(struct.pack("<Q", 9999))
        with pytest.raises(CorruptFileError, match="table"):
            ChunkFileReader(path, dimensions=4, geometry=geometry)

    @pytest.mark.parametrize("byte", range(len(CHUNK_MAGIC)))
    def test_magic_bit_flip_rejected_at_open(self, tmp_path, byte):
        """A damaged magic must fail the open — never fall back to
        decoding the data region from the wrong page offset."""
        path = str(tmp_path / "chunks.dat")
        _, geometry = write_v2(path)
        for bit in range(8):
            flip_bit(path, byte, bit)
            with pytest.raises(CorruptFileError, match="magic"):
                ChunkFileReader(path, dimensions=4, geometry=geometry)
            flip_bit(path, byte, bit)  # restore

    def test_headerless_file_rejected_at_open(self, tmp_path):
        """Page-padded records with no header (the retired v1 layout)
        are not a chunk file."""
        path = str(tmp_path / "chunks.dat")
        geometry = PageGeometry(256)
        payload = RecordCodec(4).encode(*chunk_data(10, 4))
        with open(path, "wb") as f:
            f.write(payload + b"\x00" * geometry.padding_for(len(payload)))
        with pytest.raises(CorruptFileError, match="magic"):
            ChunkFileReader(path, dimensions=4, geometry=geometry)


class TestAbortedWrite:
    def test_raising_iterator_keeps_previous_file(self, tmp_path):
        """A write whose chunk iterator raises part way publishes nothing:
        the file already at the path is unchanged byte for byte and no
        ``.tmp`` file is left behind."""
        path = str(tmp_path / "chunks.dat")
        _, geometry = write_v2(path)
        with open(path, "rb") as f:
            before = f.read()

        def chunks():
            yield chunk_data(2, 4)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            write_chunk_file(path, 4, chunks(), geometry)
        with open(path, "rb") as f:
            assert f.read() == before
        assert not os.path.exists(path + ".tmp")


class TestAtomicOutput:
    def test_success_publishes_and_cleans_tmp(self, tmp_path):
        path = str(tmp_path / "out.bin")
        with atomic_output(path) as stream:
            stream.write(b"payload")
        assert open(path, "rb").read() == b"payload"
        assert not os.path.exists(path + ".tmp")

    def test_failure_leaves_no_trace(self, tmp_path):
        path = str(tmp_path / "out.bin")
        with pytest.raises(RuntimeError):
            with atomic_output(path) as stream:
                stream.write(b"partial")
                raise RuntimeError("boom")
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")


def make_collection(n=30, dims=4):
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((n, dims)).astype(np.float32)
    return from_vectors(vectors)


class TestCollectionFileCorruption:
    def test_truncated_collection_detected(self, tmp_path):
        path = str(tmp_path / "coll.dat")
        write_collection_file(path, make_collection())
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 40)
        with pytest.raises(CorruptFileError, match="truncated"):
            read_collection_file(path)

    def test_magic_bit_flip_detected(self, tmp_path):
        path = str(tmp_path / "coll.dat")
        write_collection_file(path, make_collection())
        flip_bit(path, 2)
        with pytest.raises(CorruptFileError, match="magic"):
            read_collection_file(path)

    def test_atomic_write_failure_leaves_no_file(self, tmp_path):
        missing = str(tmp_path / "nope" / "coll.dat")
        with pytest.raises(OSError):
            write_collection_file(missing, make_collection())
        assert not os.path.exists(missing)
        assert not os.path.exists(missing + ".tmp")


def make_metas(n=4, dims=3):
    rng = np.random.default_rng(3)
    centroids = rng.standard_normal((n, dims))
    return [
        ChunkMeta(
            chunk_id=i,
            centroid=centroids[i],
            radius=float(i + 1),
            lower=centroids[i] - (i + 1),
            upper=centroids[i] + (i + 1),
            n_descriptors=5,
            page_offset=i,
            page_count=1,
        )
        for i in range(n)
    ]


class TestIndexFileCorruption:
    def test_truncated_index_detected(self, tmp_path):
        path = str(tmp_path / "index.dat")
        write_index_file(path, make_metas())
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 8)
        with pytest.raises(CorruptFileError, match="truncated"):
            read_index_file(path)

    def test_header_bit_flip_detected(self, tmp_path):
        path = str(tmp_path / "index.dat")
        write_index_file(path, make_metas())
        flip_bit(path, 4)
        with pytest.raises(CorruptFileError, match="magic"):
            read_index_file(path)

    def test_atomic_write_failure_leaves_no_file(self, tmp_path):
        missing = str(tmp_path / "nope" / "index.dat")
        with pytest.raises(OSError):
            write_index_file(missing, make_metas())
        assert not os.path.exists(missing)
        assert not os.path.exists(missing + ".tmp")


# -- the code file ------------------------------------------------------------

_CODE_HEADER = struct.Struct("<8sIIQII")


@pytest.fixture()
def coded_directory(tmp_path, clutter_collection):
    """A saved index over the clutter collection (6-d, leaves of 16): most
    of an exact query's prunes there are the cell codes'."""
    from repro.chunking.srtree_chunker import SRTreeChunker
    from repro.core.chunk_index import build_chunk_index

    chunking = SRTreeChunker(leaf_capacity=16).form_chunks(clutter_collection)
    build_chunk_index(chunking.retained, chunking.chunk_set).save(str(tmp_path))
    return tmp_path


def rewrite_code_header(path, **fields):
    names = ("magic", "version", "dims", "n_chunks", "table_crc", "index_crc")
    with open(path, "r+b") as f:
        header = dict(zip(names, _CODE_HEADER.unpack(f.read(_CODE_HEADER.size))))
        header.update(fields)
        f.seek(0)
        f.write(_CODE_HEADER.pack(*(header[name] for name in names)))


class TestCodeFileCorruption:
    def load(self, directory):
        from repro.core.chunk_index import ChunkIndex

        return ChunkIndex.load(str(directory), 6)

    def test_flipped_code_byte_fails_the_consult_never_answers(
        self, coded_directory, monkeypatch
    ):
        from repro.core.search import ChunkSearcher

        query = np.full(6, 3.5)
        consulted = []
        real_bound = ChunkSearcher.code_bound

        def spying_bound(searcher, query, chunk_id):
            consulted.append(chunk_id)
            return real_bound(searcher, query, chunk_id)

        monkeypatch.setattr(ChunkSearcher, "code_bound", spying_bound)
        with self.load(coded_directory) as index:
            assert ChunkSearcher(index).search(query, k=5).completed
            victim = consulted[0]
            counts = [meta.n_descriptors for meta in index.metas]
        # One bit in the middle of the first block that query consults.
        start = _CODE_HEADER.size + sum(3 * n + 4 for n in counts[:victim])
        flip_bit(str(coded_directory / "base-000000.va"), start + 3 * counts[victim] // 2, bit=5)
        with self.load(coded_directory) as index:  # blocks are verified on read
            for chunk_id in range(index.n_chunks):
                if chunk_id != victim:
                    index.codes.read_block(chunk_id)
            with pytest.raises(ChecksumError, match=f"code block {victim} "):
                index.codes.read_block(victim)
            with pytest.raises(ChecksumError, match=f"code block {victim} "):
                ChunkSearcher(index).search(query, k=5)

    @pytest.mark.parametrize("delta", [-1, -40, 1])
    def test_truncated_or_padded_file_rejected_at_load(self, coded_directory, delta):
        path = coded_directory / "base-000000.va"
        data = path.read_bytes()
        path.write_bytes(data[:delta] if delta < 0 else data + b"\x00" * delta)
        with pytest.raises(CorruptFileError, match="truncated or padded"):
            self.load(coded_directory)

    def test_file_shorter_than_its_header(self, coded_directory):
        (coded_directory / "base-000000.va").write_bytes(b"EFF2CODE\x01")
        with pytest.raises(CorruptFileError, match="header truncated"):
            self.load(coded_directory)

    def test_block_count_must_equal_the_chunk_count(self, coded_directory):
        with self.load(coded_directory) as index:
            n_chunks = index.n_chunks
        rewrite_code_header(coded_directory / "base-000000.va", n_chunks=n_chunks - 1)
        with pytest.raises(CorruptFileError, match=f"holds {n_chunks - 1} blocks"):
            self.load(coded_directory)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"magic": b"EFF2CODF"}, "magic"),
            ({"version": 2}, "version 2"),
            ({"dims": 7}, "7-d codes"),
            ({"dims": 0}, "0-d codes"),
        ],
    )
    def test_header_fields_are_validated(self, coded_directory, fields, message):
        rewrite_code_header(coded_directory / "base-000000.va", **fields)
        with pytest.raises(CorruptFileError, match=message):
            self.load(coded_directory)

    def test_block_lengths_come_from_the_descriptor_counts(self, tmp_path):
        """``ceil(d / 2) * n_descriptors + 4`` per block: other counts do
        not add up to the file, and the same counts in another order do
        but then put every CRC in the wrong place."""
        from repro.storage.code_file import CodeFileReader, write_code_file

        path = str(tmp_path / "chunks.va")
        rng = np.random.default_rng(5)
        counts = [9, 30, 1, 17]
        chunks = [rng.standard_normal((n, 5)).astype(np.float32) for n in counts]
        write_code_file(
            path, 5, 4, ((v, v.min(axis=0), v.max(axis=0)) for v in chunks), 1, 2
        )
        assert os.path.getsize(path) == _CODE_HEADER.size + sum(3 * n + 4 for n in counts)
        with CodeFileReader(path, 5, counts, 1, 2) as reader:
            for chunk_id in range(4):
                assert reader.read_block(chunk_id).shape == (3, counts[chunk_id])
        with pytest.raises(CorruptFileError, match="truncated or padded"):
            CodeFileReader(path, 5, [10, 30, 1, 17], 1, 2)
        with CodeFileReader(path, 5, sorted(counts), 1, 2) as reader:
            with pytest.raises(ChecksumError):
                reader.read_block(0)
