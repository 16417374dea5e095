"""Tests for checkpoint packs (per-chunk tombstone bitmap + appends sections)."""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.storage.delta import DeltaPackReader, DeltaSection, write_delta_pack
from repro.storage.errors import ChecksumError, CorruptFileError

DIMS = 6
_HEADER_BYTES = 24
_ENTRY_BYTES = 24


def _records(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    ids = np.arange(100, 100 + n, dtype=np.int64)
    vectors = rng.standard_normal((n, DIMS)).astype(np.float32)
    return ids, vectors


def _write(path, sections, dimensions: int = DIMS) -> int:
    return write_delta_pack(str(path), dimensions, len(sections), iter(sections))


def _read_all(path, dimensions: int = DIMS):
    with DeltaPackReader(str(path), dimensions) as reader:
        return [reader.read_section(k) for k in range(len(reader))]


def _based() -> DeltaSection:
    live = np.array([True, False, True, True, False, False, True], dtype=bool)
    return DeltaSection(4, live, *_records(3, seed=1))


def _baseless() -> DeltaSection:
    return DeltaSection(-1, None, *_records(5, seed=2))


def _tombstone_only() -> DeltaSection:
    return DeltaSection(
        0,
        np.array([False, True, True], dtype=bool),
        np.zeros(0, dtype=np.int64),
        np.zeros((0, DIMS), dtype=np.float32),
    )


def _assert_section_equal(got: DeltaSection, want: DeltaSection) -> None:
    assert got.base_ref == want.base_ref
    want_live = np.zeros(0, dtype=bool) if want.live is None else want.live
    assert got.live.dtype == bool
    np.testing.assert_array_equal(got.live, want_live)
    np.testing.assert_array_equal(got.ids, want.ids)
    assert got.vectors.dtype == np.float32
    assert got.vectors.shape == (len(want.ids), DIMS)
    np.testing.assert_array_equal(got.vectors, want.vectors)


def _flip(path, position: int, mask: int = 0x01) -> None:
    with open(path, "r+b") as stream:
        stream.seek(position)
        byte = stream.read(1)
        stream.seek(position)
        stream.write(bytes([byte[0] ^ mask]))


class TestRoundTrip:
    def test_based_segment(self, tmp_path):
        path = tmp_path / "delta-000001.pack"
        n_bytes = _write(path, [_based()])
        assert n_bytes == os.path.getsize(path)
        (section,) = _read_all(path)
        _assert_section_equal(section, _based())

    def test_baseless_segment(self, tmp_path):
        path = tmp_path / "delta.pack"
        _write(path, [_baseless()])
        (section,) = _read_all(path)
        assert section.live.size == 0
        _assert_section_equal(section, _baseless())

    def test_tombstone_only_segment(self, tmp_path):
        path = tmp_path / "delta.pack"
        _write(path, [_tombstone_only()])
        (section,) = _read_all(path)
        _assert_section_equal(section, _tombstone_only())

    def test_all_three_kinds_in_one_pack(self, tmp_path):
        path = tmp_path / "delta.pack"
        sections = [_based(), _baseless(), _tombstone_only(), _based()]
        n_bytes = _write(path, sections)
        assert n_bytes == os.path.getsize(path)
        for got, want in zip(_read_all(path), sections):
            _assert_section_equal(got, want)
        # Sections are addressable on their own, in any order.
        with DeltaPackReader(str(path), DIMS) as reader:
            assert len(reader) == 4
            _assert_section_equal(reader.read_section(2), sections[2])
            _assert_section_equal(reader.read_section(0), sections[0])

    def test_section_table_is_cheaper_than_per_file_headers(self, tmp_path):
        # The format this replaced spent a 32-byte header per chunk.
        sections = [_based() for _ in range(4)]
        payload = 4 * (1 + 3 * (4 * DIMS + 4))
        assert _write(tmp_path / "d.pack", sections) <= payload + 4 * 32

    def test_bitmap_roundtrip_across_byte_boundaries(self, tmp_path):
        # Liveness masks whose length is not a multiple of 8 exercise the
        # little-endian packbits padding — here also inside one pack, where
        # a wrong bitmap length would misalign every later section.
        sizes = (1, 7, 8, 9, 15, 16, 17)
        sections = []
        for n_rows in sizes:
            rng = np.random.default_rng(n_rows)
            sections.append(
                DeltaSection(2, rng.random(n_rows) < 0.5, *_records(1, seed=n_rows))
            )
        path = tmp_path / "delta.pack"
        _write(path, sections)
        for got, want in zip(_read_all(path), sections):
            _assert_section_equal(got, want)

    def test_sections_are_consumed_lazily(self, tmp_path):
        """The writer streams: by the time it asks for section ``k`` it
        has let go of section ``k - 2`` (it never collects them first)."""
        import weakref

        made = []

        def produce():
            for seed in range(5):
                if seed >= 2:
                    assert made[seed - 2]() is None
                ids, vectors = _records(4, seed=seed)
                made.append(weakref.ref(vectors))
                yield DeltaSection(-1, None, ids, vectors)
                del ids, vectors

        path = tmp_path / "delta.pack"
        write_delta_pack(str(path), DIMS, 5, produce())
        assert len(_read_all(path)) == 5


class TestValidation:
    def test_based_segment_requires_mask(self, tmp_path):
        ids, vectors = _records(1)
        with pytest.raises(ValueError, match="liveness mask"):
            _write(tmp_path / "d.pack", [DeltaSection(0, None, ids, vectors)])

    def test_baseless_segment_rejects_mask(self, tmp_path):
        ids, vectors = _records(1)
        with pytest.raises(ValueError, match="cannot carry a mask"):
            _write(
                tmp_path / "d.pack",
                [DeltaSection(-1, np.ones(3, dtype=bool), ids, vectors)],
            )

    def test_shape_mismatch_rejected(self, tmp_path):
        ids, _ = _records(2)
        vectors = np.zeros((3, DIMS), dtype=np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            _write(tmp_path / "d.pack", [DeltaSection(-1, None, ids, vectors)])

    def test_empty_baseless_segment_rejected(self, tmp_path):
        empty_ids = np.zeros(0, dtype=np.int64)
        empty_vecs = np.zeros((0, DIMS), dtype=np.float32)
        with pytest.raises(ValueError, match="tombstone or append"):
            _write(
                tmp_path / "d.pack", [DeltaSection(-1, None, empty_ids, empty_vecs)]
            )

    def test_empty_pack_and_wrong_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one section"):
            write_delta_pack(str(tmp_path / "d.pack"), DIMS, 0, iter(()))
        with pytest.raises(ValueError, match="promised 3 sections, got 2"):
            write_delta_pack(
                str(tmp_path / "d.pack"), DIMS, 3, iter([_based(), _baseless()])
            )

    def test_failed_write_publishes_nothing(self, tmp_path):
        good = tmp_path / "d.pack"
        _write(good, [_baseless()])
        before = good.read_bytes()
        with pytest.raises(ValueError):
            _write(good, [_based(), DeltaSection(0, None, *_records(1))])
        assert good.read_bytes() == before  # the earlier pack survives
        assert os.listdir(tmp_path) == ["d.pack"]  # and no temp is left


class TestCorruption:
    def _pack(self, tmp_path) -> str:
        path = str(tmp_path / "delta.pack")
        _write(path, [_based(), _baseless(), _tombstone_only()])
        return path

    def _section_offset(self, path: str, number: int) -> int:
        with open(path, "rb") as stream:
            stream.seek(_HEADER_BYTES + number * _ENTRY_BYTES)
            return struct.unpack("<iIIQI", stream.read(_ENTRY_BYTES))[3]

    def test_flipped_record_byte_fails_crc(self, tmp_path):
        path = self._pack(tmp_path)
        _flip(path, os.path.getsize(path) - 1)
        with pytest.raises(ChecksumError, match="section 2 .*CRC32"):
            _read_all(path)

    @pytest.mark.parametrize("damaged", [0, 1, 2])
    def test_flipped_byte_in_one_section_names_it(self, tmp_path, damaged):
        path = self._pack(tmp_path)
        _flip(path, self._section_offset(path, damaged))
        # The table still parses and every other section still reads.
        with DeltaPackReader(path, DIMS) as reader:
            assert len(reader) == 3
            for number in range(3):
                if number == damaged:
                    with pytest.raises(
                        ChecksumError, match=f"delta.pack section {damaged} "
                    ):
                        reader.read_section(number)
                else:
                    reader.read_section(number)

    def test_flipped_table_byte_fails_table_crc(self, tmp_path):
        path = self._pack(tmp_path)
        _flip(path, _HEADER_BYTES + _ENTRY_BYTES + 1)  # section 1's base_ref
        with pytest.raises(ChecksumError, match="section table"):
            DeltaPackReader(path, DIMS)

    def test_consistent_but_wrong_table_is_structurally_rejected(self, tmp_path):
        """A table whose CRC matches but whose offsets do not chain."""
        import zlib

        path = self._pack(tmp_path)
        with open(path, "r+b") as stream:
            raw = bytearray(stream.read())
            table = raw[_HEADER_BYTES : _HEADER_BYTES + 3 * _ENTRY_BYTES]
            struct.pack_into("<Q", table, _ENTRY_BYTES + 12, 7)  # section 1 offset
            raw[_HEADER_BYTES : _HEADER_BYTES + 3 * _ENTRY_BYTES] = table
            struct.pack_into("<I", raw, 20, zlib.crc32(bytes(table)))
            stream.seek(0)
            stream.write(raw)
        with pytest.raises(CorruptFileError, match="section 1 starts at 7"):
            DeltaPackReader(path, DIMS)

    def test_out_of_range_section_number(self, tmp_path):
        with DeltaPackReader(self._pack(tmp_path), DIMS) as reader:
            for number in (-1, 3):
                with pytest.raises(CorruptFileError, match="has no section"):
                    reader.read_section(number)

    def test_truncated_records(self, tmp_path):
        path = self._pack(tmp_path)
        with open(path, "r+b") as stream:
            stream.truncate(os.path.getsize(path) - 5)
        with pytest.raises(CorruptFileError, match="truncated"):
            _read_all(path)

    def test_truncated_table(self, tmp_path):
        path = self._pack(tmp_path)
        with open(path, "r+b") as stream:
            stream.truncate(_HEADER_BYTES + _ENTRY_BYTES + 3)
        with pytest.raises(CorruptFileError, match="section table truncated"):
            _read_all(path)

    def test_truncated_header(self, tmp_path):
        path = self._pack(tmp_path)
        with open(path, "r+b") as stream:
            stream.truncate(10)
        with pytest.raises(CorruptFileError, match="truncated"):
            _read_all(path)

    def test_huge_section_count_is_truncation_not_allocation(self, tmp_path):
        path = self._pack(tmp_path)
        with open(path, "r+b") as stream:
            stream.seek(16)
            stream.write(struct.pack("<I", 0xFFFFFFF0))
        with pytest.raises(CorruptFileError, match="truncated"):
            _read_all(path)

    def test_bad_magic(self, tmp_path):
        path = self._pack(tmp_path)
        with open(path, "r+b") as stream:
            stream.write(b"NOTADPAK")
        with pytest.raises(CorruptFileError, match="magic"):
            _read_all(path)

    def test_dimension_mismatch(self, tmp_path):
        path = self._pack(tmp_path)
        with pytest.raises(CorruptFileError, match="expects"):
            _read_all(path, DIMS + 1)
