"""Tests for the raw collection file format."""

import os
import tempfile

import numpy as np
import pytest

from repro.storage.collection_file import (
    COLLECTION_MAGIC,
    read_collection_file,
    write_collection_file,
)


def written(collection):
    """The bytes :func:`write_collection_file` publishes for ``collection``."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "descriptors.dat")
        write_collection_file(path, collection)
        with open(path, "rb") as handle:
            return handle.read()


def saved(tmp_path, data):
    """``data`` as a file under ``tmp_path``: the reader takes a path."""
    path = tmp_path / "descriptors.dat"
    path.write_bytes(bytes(data))
    return str(path)


class TestRoundtrip:
    def test_file_roundtrip(self, tiny_collection, tmp_path):
        path = str(tmp_path / "descriptors.dat")
        write_collection_file(path, tiny_collection)
        loaded = read_collection_file(path)
        assert loaded == tiny_collection

    def test_100_byte_records(self, small_synthetic, tmp_path):
        """The paper's arithmetic: 24-d records consume 100 bytes each."""
        path = str(tmp_path / "c.dat")
        write_collection_file(path, small_synthetic)
        size = os.path.getsize(path)
        expected = 24 + len(small_synthetic) * 100 + len(small_synthetic) * 8
        assert size == expected


class TestValidation:
    def test_bad_magic(self, tmp_path):
        with pytest.raises(IOError, match="magic"):
            read_collection_file(saved(tmp_path, b"WRONG!!!" + b"\x00" * 100))

    def test_short_header(self, tmp_path):
        with pytest.raises(IOError, match="too short"):
            read_collection_file(saved(tmp_path, b"\x00" * 3))

    def test_truncated_records(self, tiny_collection, tmp_path):
        data = written(tiny_collection)
        with pytest.raises(IOError, match="truncated"):
            read_collection_file(saved(tmp_path, data[: len(data) // 2]))

    def test_truncated_image_ids(self, tiny_collection, tmp_path):
        data = written(tiny_collection)
        with pytest.raises(IOError, match="image ids"):
            read_collection_file(saved(tmp_path, data[:-4]))


class TestHeaderGuards:
    """Corrupted dims/count header fields must fail fast and typed."""

    @staticmethod
    def _with_dims(tmp_path, collection, dims):
        import struct

        data = bytearray(written(collection))
        # Header: <8sIIQ -> dims is the uint32 at offset 12.
        struct.pack_into("<I", data, 12, dims)
        return saved(tmp_path, data)

    def test_zero_dimensions_rejected(self, tiny_collection, tmp_path):
        from repro.storage.errors import CorruptFileError

        with pytest.raises(CorruptFileError, match="implausible dimensions"):
            read_collection_file(self._with_dims(tmp_path, tiny_collection, 0))

    def test_overflowing_dimensions_rejected(self, tiny_collection, tmp_path):
        from repro.storage.errors import CorruptFileError

        # 2**32 - 1 survives the uint32 pack but implies ~17 GB records.
        with pytest.raises(CorruptFileError, match="implausible dimensions"):
            read_collection_file(
                self._with_dims(tmp_path, tiny_collection, 2**32 - 1)
            )

    def test_corrupt_error_is_ioerror(self, tmp_path):
        from repro.storage.errors import CorruptFileError

        # Existing except-IOError call sites keep catching corruption.
        assert issubclass(CorruptFileError, IOError)
        with pytest.raises(IOError):
            read_collection_file(saved(tmp_path, b"WRONG!!!" + b"\x00" * 100))
