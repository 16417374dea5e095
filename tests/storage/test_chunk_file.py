"""Tests for the chunk file writer/reader."""

import os

import numpy as np
import pytest

from repro.storage.chunk_file import (
    _TABLE_ENTRY,
    _TABLE_HEADER,
    ChunkFileReader,
    write_chunk_file,
)
from repro.storage.errors import CorruptFileError
from repro.storage.pages import PageGeometry


def chunk_data(n, dims, offset=0):
    ids = np.arange(offset, offset + n)
    vectors = np.arange(n * dims, dtype=np.float32).reshape(n, dims) + offset
    return ids, vectors


def write(path, dims, chunks, geometry=PageGeometry()):
    extents, _ = write_chunk_file(path, dims, chunks, geometry)
    return extents


class TestWriter:
    def test_extents_sequential_and_padded(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        e1, e2, e3 = write(
            path,
            4,
            # 200 B -> 1 page, 400 B -> 2 pages, 20 B -> 1 page
            [chunk_data(10, 4), chunk_data(20, 4), chunk_data(1, 4)],
            PageGeometry(256),
        )
        assert (e1.page_offset, e1.page_count) == (0, 1)
        assert (e2.page_offset, e2.page_count) == (1, 2)
        assert (e3.page_offset, e3.page_count) == (3, 1)
        # Header page + 4 fully padded data pages + trailing CRC table.
        table_bytes = _TABLE_HEADER.size + 3 * _TABLE_ENTRY.size
        assert os.path.getsize(path) == 5 * 256 + table_bytes


class TestRoundtrip:
    def test_write_read_many_chunks(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        geometry = PageGeometry(512)
        payloads = [chunk_data(n, 6, offset=n * 100) for n in (1, 7, 30, 2)]
        extents = write(path, 6, payloads, geometry)
        with ChunkFileReader(path, dimensions=6, geometry=geometry) as reader:
            for (ids, vecs), extent in zip(payloads, extents):
                out_ids, out_vecs = reader.read_chunk(extent)
                np.testing.assert_array_equal(out_ids, ids)
                np.testing.assert_array_equal(out_vecs, vecs)

    def test_random_access_order(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        extents = write(path, 2, [chunk_data(n, 2, offset=n) for n in (3, 5, 2)])
        with ChunkFileReader(path, dimensions=2) as reader:
            # Read in reverse order.
            for n, extent in zip((2, 5, 3), reversed(extents)):
                ids, _ = reader.read_chunk(extent)
                assert ids.shape[0] == n

    def test_truncated_file_detected(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        write(path, 2, [chunk_data(4, 2)])
        # Chop the file inside the header: rejected on open.
        with open(path, "r+b") as f:
            f.truncate(10)
        with pytest.raises(CorruptFileError, match="short"):
            ChunkFileReader(path, dimensions=2)

    def test_geometry_mismatch_rejected(self, tmp_path):
        """The v2 header records the page size, so opening with the wrong
        geometry fails loudly instead of decoding garbage offsets."""
        path = str(tmp_path / "chunks.dat")
        chunks = [chunk_data(4, 2), chunk_data(4, 2, offset=50)]
        write(path, 2, chunks, PageGeometry(256))
        with pytest.raises(CorruptFileError, match="page"):
            ChunkFileReader(path, dimensions=2, geometry=PageGeometry(128))

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "chunks.dat")
        write(path, 2, [chunk_data(4, 2)])
        with pytest.raises(CorruptFileError, match="-d"):
            ChunkFileReader(path, dimensions=3)
