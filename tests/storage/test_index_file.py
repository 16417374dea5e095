"""Tests for the index-file codec."""

import io

import numpy as np
import pytest

from repro.core.chunk import ChunkMeta
from repro.storage.errors import CorruptFileError
from repro.storage.index_file import (
    MAGIC,
    index_file_bytes,
    read_index_file,
    write_index_file,
)


def make_metas(n, dims=4):
    rng = np.random.default_rng(0)
    metas = []
    offset = 0
    for i in range(n):
        pages = int(rng.integers(1, 5))
        metas.append(
            ChunkMeta(
                chunk_id=i,
                centroid=rng.standard_normal(dims),
                radius=float(rng.random()),
                n_descriptors=int(rng.integers(1, 100)),
                page_offset=offset,
                page_count=pages,
            )
        )
        offset += pages
    return metas


class TestRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "chunks.idx")
        metas = make_metas(7)
        write_index_file(path, metas)
        loaded = read_index_file(path)
        assert len(loaded) == 7
        for a, b in zip(metas, loaded):
            assert a.chunk_id == b.chunk_id
            np.testing.assert_allclose(a.centroid, b.centroid)
            assert a.radius == pytest.approx(b.radius)
            assert a.n_descriptors == b.n_descriptors
            assert (a.page_offset, a.page_count) == (b.page_offset, b.page_count)

    def test_stream_roundtrip(self):
        stream = io.BytesIO()
        metas = make_metas(3, dims=24)
        write_index_file(stream, metas)
        stream.seek(0)
        loaded = read_index_file(stream)
        assert len(loaded) == 3

    def test_size_matches_prediction(self, tmp_path):
        import os

        path = str(tmp_path / "chunks.idx")
        metas = make_metas(11, dims=24)
        write_index_file(path, metas)
        # The whole file is the per-query ranking scan: header + entries.
        assert os.path.getsize(path) == index_file_bytes(11, 24)


class TestValidation:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_index_file(str(tmp_path / "e.idx"), [])

    def test_out_of_order_rejected(self, tmp_path):
        metas = make_metas(3)
        metas[1], metas[2] = metas[2], metas[1]
        with pytest.raises(ValueError, match="chunk order"):
            write_index_file(str(tmp_path / "o.idx"), metas)

    def test_bad_magic(self):
        stream = io.BytesIO(b"NOTMAGIC" + b"\x00" * 100)
        with pytest.raises(IOError, match="magic"):
            read_index_file(stream)

    def test_truncated_header(self):
        with pytest.raises(IOError, match="too short"):
            read_index_file(io.BytesIO(b"\x00" * 4))

    def test_truncated_entries(self, tmp_path):
        path = str(tmp_path / "t.idx")
        write_index_file(path, make_metas(5))
        with open(path, "r+b") as f:
            size = f.seek(0, 2)
            f.truncate(size - 10)
        with pytest.raises(IOError, match="truncated"):
            read_index_file(path)

    def test_magic_constant(self):
        assert MAGIC == b"EFF2CIDX"


class TestNormsBlock:
    """The v2 centroid-norms tail is retired: a v2 file is not read."""

    def test_unsupported_read_version_rejected(self):
        import struct

        stream = io.BytesIO()
        write_index_file(stream, make_metas(2))
        data = bytearray(stream.getvalue())
        # 1: pre-checksum layout; 2: entries + centroid-norms tail; 7: future.
        for version in (1, 2, 7):
            struct.pack_into("<I", data, 8, version)  # <8sIIQ8s: version at 8
            with pytest.raises(CorruptFileError, match="version"):
                read_index_file(io.BytesIO(bytes(data)))


class TestEntryValidation:
    @pytest.mark.parametrize(
        "field_offset,value",
        [
            (0, np.float64(np.nan).tobytes()),  # first centroid component
            (4 * 8, np.float64(-0.25).tobytes()),  # radius: sign bit set
            (4 * 8, np.float64(np.inf).tobytes()),  # radius: unbounded chunk
            (4 * 8 + 16, (0).to_bytes(4, "little")),  # page_count
            (4 * 8 + 20, (0).to_bytes(4, "little")),  # n_descriptors
        ],
        ids=["nan-centroid", "negative-radius", "inf-radius", "no-pages", "no-rows"],
    )
    def test_corrupt_entry_rejected(self, field_offset, value):
        """The file has no checksum, so the reader validates every stored
        value itself instead of leaving it to ``ChunkMeta`` (ValueError)
        or to nobody (a NaN centroid poisons the completion proof)."""
        stream = io.BytesIO()
        write_index_file(stream, make_metas(3, dims=4))
        data = bytearray(stream.getvalue())
        entry_bytes = (index_file_bytes(3, 4) - index_file_bytes(0, 4)) // 3
        at = index_file_bytes(0, 4) + entry_bytes + field_offset  # entry 1
        data[at : at + len(value)] = value
        with pytest.raises(CorruptFileError, match="entry 1 is corrupt"):
            read_index_file(io.BytesIO(bytes(data)))


class TestHeaderGuards:
    """Corrupted dims/n_chunks fields must fail fast and typed."""

    @staticmethod
    def _packed(metas, dims=None, n_chunks=None):
        import io as _io
        import struct

        stream = _io.BytesIO()
        write_index_file(stream, metas)
        data = bytearray(stream.getvalue())
        # Header: <8sIIQ8s -> dims at offset 12, n_chunks at offset 16.
        if dims is not None:
            struct.pack_into("<I", data, 12, dims)
        if n_chunks is not None:
            struct.pack_into("<Q", data, 16, n_chunks)
        return _io.BytesIO(bytes(data))

    def test_zero_dimensions_rejected(self):
        from repro.storage.errors import CorruptFileError

        with pytest.raises(CorruptFileError, match="implausible dimensions"):
            read_index_file(self._packed(make_metas(3), dims=0))

    def test_overflowing_dimensions_rejected(self):
        from repro.storage.errors import CorruptFileError

        with pytest.raises(CorruptFileError, match="implausible dimensions"):
            read_index_file(self._packed(make_metas(3), dims=2**32 - 1))

    def test_overflowing_chunk_count_rejected(self):
        from repro.storage.errors import CorruptFileError

        with pytest.raises(CorruptFileError, match="implausible size"):
            read_index_file(self._packed(make_metas(3), n_chunks=2**63))
