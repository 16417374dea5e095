"""Tests for the chunk file writer/reader."""

import io

import numpy as np
import pytest

from repro.storage.chunk_file import (
    _TABLE_ENTRY,
    _TABLE_HEADER,
    ChunkFileReader,
    ChunkFileWriter,
)
from repro.storage.errors import CorruptFileError
from repro.storage.pages import PageGeometry


def chunk_data(n, dims, offset=0):
    ids = np.arange(offset, offset + n)
    vectors = np.arange(n * dims, dtype=np.float32).reshape(n, dims) + offset
    return ids, vectors


class TestWriter:
    def test_extents_sequential_and_padded(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        geometry = PageGeometry(256)
        with ChunkFileWriter(path, dimensions=4, geometry=geometry) as writer:
            e1 = writer.write_chunk(*chunk_data(10, 4))  # 200 B -> 1 page
            e2 = writer.write_chunk(*chunk_data(20, 4))  # 400 B -> 2 pages
            e3 = writer.write_chunk(*chunk_data(1, 4))  # 20 B -> 1 page
        assert (e1.page_offset, e1.page_count) == (0, 1)
        assert (e2.page_offset, e2.page_count) == (1, 2)
        assert (e3.page_offset, e3.page_count) == (3, 1)
        import os

        # Header page + 4 fully padded data pages + trailing CRC table.
        table_bytes = _TABLE_HEADER.size + 3 * _TABLE_ENTRY.size
        assert os.path.getsize(path) == 5 * 256 + table_bytes

    def test_write_after_close_rejected(self, tmp_path):
        writer = ChunkFileWriter(str(tmp_path / "x.dat"), dimensions=2)
        writer.close()
        with pytest.raises(ValueError):
            writer.write_chunk(*chunk_data(1, 2))

    def test_in_memory_stream(self):
        stream = io.BytesIO()
        writer = ChunkFileWriter(stream, dimensions=3, geometry=PageGeometry(128))
        writer.write_chunk(*chunk_data(5, 3))
        writer.close()
        # Header page + one data page + one-entry CRC table.
        table_bytes = _TABLE_HEADER.size + _TABLE_ENTRY.size
        assert len(stream.getvalue()) == 2 * 128 + table_bytes


class TestRoundtrip:
    def test_write_read_many_chunks(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        geometry = PageGeometry(512)
        payloads = [chunk_data(n, 6, offset=n * 100) for n in (1, 7, 30, 2)]
        with ChunkFileWriter(path, dimensions=6, geometry=geometry) as writer:
            extents = [writer.write_chunk(ids, vecs) for ids, vecs in payloads]
        with ChunkFileReader(path, dimensions=6, geometry=geometry) as reader:
            for (ids, vecs), extent in zip(payloads, extents):
                out_ids, out_vecs = reader.read_chunk(extent)
                np.testing.assert_array_equal(out_ids, ids)
                np.testing.assert_array_equal(out_vecs, vecs)

    def test_random_access_order(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        with ChunkFileWriter(path, dimensions=2) as writer:
            extents = [
                writer.write_chunk(*chunk_data(n, 2, offset=n)) for n in (3, 5, 2)
            ]
        with ChunkFileReader(path, dimensions=2) as reader:
            # Read in reverse order.
            for n, extent in zip((2, 5, 3), reversed(extents)):
                ids, _ = reader.read_chunk(extent)
                assert ids.shape[0] == n

    def test_truncated_file_detected(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        with ChunkFileWriter(path, dimensions=2) as writer:
            writer.write_chunk(*chunk_data(4, 2))
        # Chop the file inside the header: rejected on open.
        with open(path, "r+b") as f:
            f.truncate(10)
        with pytest.raises(CorruptFileError, match="short"):
            ChunkFileReader(path, dimensions=2)

    def test_geometry_mismatch_rejected(self, tmp_path):
        """The v2 header records the page size, so opening with the wrong
        geometry fails loudly instead of decoding garbage offsets."""
        path = str(tmp_path / "chunks.dat")
        with ChunkFileWriter(path, dimensions=2, geometry=PageGeometry(256)) as w:
            w.write_chunk(*chunk_data(4, 2))
            w.write_chunk(*chunk_data(4, 2, offset=50))
        with pytest.raises(CorruptFileError, match="page"):
            ChunkFileReader(path, dimensions=2, geometry=PageGeometry(128))

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        with ChunkFileWriter(path, dimensions=2) as w:
            w.write_chunk(*chunk_data(4, 2))
        with pytest.raises(CorruptFileError, match="-d"):
            ChunkFileReader(path, dimensions=3)
