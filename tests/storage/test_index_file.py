"""Tests for the index-file codec."""

import dataclasses
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest

from repro.core.chunk import ChunkMeta
from repro.storage.errors import ChecksumError, CorruptFileError
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
        centroid = rng.standard_normal(dims)
        radius = float(rng.random())
        metas.append(
            ChunkMeta(
                chunk_id=i,
                centroid=centroid,
                radius=radius,
                # The sphere's box, not float32-representable: the writer
                # rounds it outward.
                lower=centroid - radius,
                upper=centroid + radius,
                n_descriptors=int(rng.integers(1, 100)),
                page_offset=offset,
                page_count=pages,
            )
        )
        offset += pages
    return metas


def written(metas):
    """The bytes :func:`write_index_file` publishes for ``metas``."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "chunks.idx")
        write_index_file(path, metas)
        with open(path, "rb") as handle:
            return handle.read()


def saved(tmp_path, data):
    """``data`` as a file under ``tmp_path``: the reader takes a path."""
    path = tmp_path / "chunks.idx"
    path.write_bytes(bytes(data))
    return str(path)


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

    def test_rectangle_is_rounded_outward(self, tmp_path):
        """``make_metas`` rectangles are float64 values no float32 holds:
        the stored rectangle contains the in-memory one, by under one
        float32 ulp per bound, and what comes back is float32-exact."""
        metas = make_metas(7)
        for a, b in zip(metas, read_index_file(saved(tmp_path, written(metas)))):
            assert not np.array_equal(a.lower, a.lower.astype(np.float32))
            assert np.all(b.lower <= a.lower) and np.all(a.upper <= b.upper)
            lower32, upper32 = b.lower.astype(np.float32), b.upper.astype(np.float32)
            assert np.array_equal(lower32, b.lower) and np.array_equal(upper32, b.upper)
            assert np.all(np.nextafter(lower32, np.float32(np.inf)) > a.lower)
            assert np.all(np.nextafter(upper32, np.float32(-np.inf)) < a.upper)

    def test_member_rectangle_round_trips_exactly(self, tmp_path):
        """A rectangle of float32 members is stored without widening."""
        rng = np.random.default_rng(5)
        members = rng.standard_normal((9, 4)).astype(np.float32).astype(np.float64)
        centroid = members.mean(axis=0)
        meta = ChunkMeta(
            chunk_id=0,
            centroid=centroid,
            radius=float(np.linalg.norm(members - centroid, axis=1).max()) * (1 + 1e-12),
            lower=members.min(axis=0),
            upper=members.max(axis=0),
            n_descriptors=9,
            page_offset=0,
            page_count=1,
        )
        (loaded,) = read_index_file(saved(tmp_path, written([meta])))
        assert np.array_equal(loaded.lower, meta.lower)
        assert np.array_equal(loaded.upper, meta.upper)

    def test_size_matches_prediction(self, tmp_path):
        path = str(tmp_path / "chunks.idx")
        metas = make_metas(11, dims=24)
        write_index_file(path, metas)
        # The per-query ranking scan is header + entries; behind it sit one
        # float32 lower/upper pair per chunk and the block's CRC32.
        assert os.path.getsize(path) == index_file_bytes(11, 24) + 11 * 2 * 24 * 4 + 4


class TestValidation:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_index_file(str(tmp_path / "e.idx"), [])

    def test_out_of_order_rejected(self, tmp_path):
        metas = make_metas(3)
        metas[1], metas[2] = metas[2], metas[1]
        with pytest.raises(ValueError, match="chunk order"):
            write_index_file(str(tmp_path / "o.idx"), metas)

    def test_bad_magic(self, tmp_path):
        with pytest.raises(IOError, match="magic"):
            read_index_file(saved(tmp_path, b"NOTMAGIC" + b"\x00" * 100))

    def test_truncated_header(self, tmp_path):
        with pytest.raises(IOError, match="too short"):
            read_index_file(saved(tmp_path, b"\x00" * 4))

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

    def test_contradictory_rectangle_is_not_written(self):
        """The writer refuses what its reader would: a rectangle the
        centroid and radius do not allow."""
        meta = make_metas(1)[0]
        outside = dataclasses.replace(meta, upper=meta.upper + 1.0)
        with pytest.raises(ValueError, match="chunk 0: rectangle contradicts"):
            written([outside])


class TestNormsBlock:
    """The v2 centroid-norms tail and the rectangle-less v3 layout are
    retired: neither file is read."""

    def test_unsupported_read_version_rejected(self, tmp_path):
        data = bytearray(written(make_metas(2)))
        # 1: pre-checksum layout; 2: entries + centroid-norms tail;
        # 3: entries only, no rectangle block; 7: future.
        for version in (1, 2, 3, 7):
            struct.pack_into("<I", data, 8, version)  # <8sIIQ8s: version at 8
            with pytest.raises(CorruptFileError, match="version"):
                read_index_file(saved(tmp_path, data))


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
    def test_corrupt_entry_rejected(self, field_offset, value, tmp_path):
        """The file has no checksum, so the reader validates every stored
        value itself instead of leaving it to ``ChunkMeta`` (ValueError)
        or to nobody (a NaN centroid poisons the completion proof)."""
        data = bytearray(written(make_metas(3, dims=4)))
        entry_bytes = (index_file_bytes(3, 4) - index_file_bytes(0, 4)) // 3
        at = index_file_bytes(0, 4) + entry_bytes + field_offset  # entry 1
        data[at : at + len(value)] = value
        with pytest.raises(CorruptFileError, match="entry 1 is corrupt"):
            read_index_file(saved(tmp_path, data))

    # -- the rectangle block ------------------------------------------------

    N, DIMS = 3, 4
    BLOCK_AT = index_file_bytes(N, DIMS)
    PAIR_BYTES = 2 * DIMS * 4

    def _bytes(self):
        return bytearray(written(make_metas(self.N, dims=self.DIMS)))

    def _patched(self, tmp_path, offset_in_pair, value, reseal=True):
        """Entry 1's rectangle with ``value`` (float32) written at
        ``offset_in_pair``; ``reseal`` recomputes the block CRC so only the
        cross-validation can object."""
        data = self._bytes()
        at = self.BLOCK_AT + self.PAIR_BYTES + offset_in_pair
        data[at : at + 4] = np.float32(value).tobytes()
        if reseal:
            block = bytes(data[self.BLOCK_AT : -4])
            data[-4:] = struct.pack("<I", zlib.crc32(block))
        return saved(tmp_path, data)

    def test_flipped_rectangle_bit_is_a_checksum_error(self, tmp_path):
        data = self._bytes()
        data[self.BLOCK_AT + self.PAIR_BYTES + 2] ^= 0x10
        with pytest.raises(ChecksumError, match="rectangle block failed its CRC32"):
            read_index_file(saved(tmp_path, data))

    @pytest.mark.parametrize(
        "case",
        ["nan", "inf", "lower-above-upper", "centroid-outside", "outside-sphere-box"],
    )
    def test_crc_consistent_but_contradictory_rectangle_rejected(self, case, tmp_path):
        """A block whose checksum holds can still contradict the validated
        entries — a writer bug, or damage before the CRC was taken."""
        meta = make_metas(self.N, dims=self.DIMS)[1]
        upper0_at = self.DIMS * 4  # upper[0] follows the d lower bounds
        path = {
            "nan": lambda: self._patched(tmp_path, 0, np.nan),
            "inf": lambda: self._patched(tmp_path, upper0_at, np.inf),
            # lower[0] above upper[0], both still inside the sphere's box
            "lower-above-upper": lambda: self._patched(
                tmp_path, 0, meta.centroid[0] + 0.75 * meta.radius
            ),
            # upper[0] below the centroid: no mean of members lies there
            "centroid-outside": lambda: self._patched(
                tmp_path, upper0_at, meta.centroid[0] - 0.5 * meta.radius
            ),
            # lower[0] further from the centroid than any member can be
            "outside-sphere-box": lambda: self._patched(
                tmp_path, 0, meta.centroid[0] - 1.001 * meta.radius - 1e-6
            ),
        }[case]()
        with pytest.raises(
            CorruptFileError, match="entry 1 has a corrupt rectangle"
        ) as info:
            read_index_file(path)
        assert not isinstance(info.value, ChecksumError)

    def test_rectangle_inside_tolerance_still_reads(self, tmp_path):
        """The cross-validation is not a hair trigger: moving a bound
        *inward* keeps every relation and reads back."""
        meta = make_metas(self.N, dims=self.DIMS)[1]
        inward = np.float32(meta.centroid[0] - 0.5 * meta.radius)
        assert read_index_file(self._patched(tmp_path, 0, inward))[1].lower[0] == inward

    @pytest.mark.parametrize("cut", [1, 4, 5, 4 + 2 * 4 * 4, 4 + 3 * 2 * 4 * 4])
    def test_truncated_block_rejected(self, cut, tmp_path):
        data = self._bytes()
        with pytest.raises(
            CorruptFileError, match="rectangle (block|checksum) truncated"
        ):
            read_index_file(saved(tmp_path, data[:-cut]))

    @pytest.mark.parametrize("block_chunks", [2, 4])
    def test_block_for_the_wrong_chunk_count_rejected(self, block_chunks, tmp_path):
        """Entries for three chunks, a correctly sealed block for two (short:
        truncation) or four (long: the CRC is read from inside it)."""
        data = self._bytes()
        block = bytes(data[self.BLOCK_AT : -4])
        block = (block + block)[: block_chunks * self.PAIR_BYTES]
        sealed = (
            bytes(data[: self.BLOCK_AT]) + block + struct.pack("<I", zlib.crc32(block))
        )
        with pytest.raises(CorruptFileError, match="rectangle"):
            read_index_file(saved(tmp_path, sealed))

    def test_huge_chunk_count_is_truncation_not_allocation(self, tmp_path):
        """The block length comes from the header: it is checked against
        the stream before anything is allocated for it."""
        data = self._bytes()
        struct.pack_into("<Q", data, 16, 2**31)  # n_chunks
        with pytest.raises(CorruptFileError, match="truncated"):
            read_index_file(saved(tmp_path, data))


class TestHeaderGuards:
    """Corrupted dims/n_chunks fields must fail fast and typed."""

    @staticmethod
    def _packed(tmp_path, metas, dims=None, n_chunks=None):
        data = bytearray(written(metas))
        # Header: <8sIIQ8s -> dims at offset 12, n_chunks at offset 16.
        if dims is not None:
            struct.pack_into("<I", data, 12, dims)
        if n_chunks is not None:
            struct.pack_into("<Q", data, 16, n_chunks)
        return saved(tmp_path, data)

    def test_zero_dimensions_rejected(self, tmp_path):
        from repro.storage.errors import CorruptFileError

        with pytest.raises(CorruptFileError, match="implausible dimensions"):
            read_index_file(self._packed(tmp_path, make_metas(3), dims=0))

    def test_overflowing_dimensions_rejected(self, tmp_path):
        from repro.storage.errors import CorruptFileError

        with pytest.raises(CorruptFileError, match="implausible dimensions"):
            read_index_file(self._packed(tmp_path, make_metas(3), dims=2**32 - 1))

    def test_overflowing_chunk_count_rejected(self, tmp_path):
        from repro.storage.errors import CorruptFileError

        with pytest.raises(CorruptFileError, match="implausible size"):
            read_index_file(self._packed(tmp_path, make_metas(3), n_chunks=2**63))
