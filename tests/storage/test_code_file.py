"""The code file: cell geometry, the encoder's invariant, the layout."""

import os
import struct
import zlib

import numpy as np
import pytest

from repro.storage.code_file import (
    CELLS,
    CODE_MAGIC,
    CodeFileReader,
    cell_edges,
    encode_cells,
    write_code_file,
)

HEADER_BYTES = struct.calcsize("<8sIIQII")


def unpack(block, dims):
    """``(d, n)`` cell numbers out of a packed block."""
    cells = np.empty((2 * block.shape[0], block.shape[1]), dtype=np.intp)
    cells[0::2] = block & 0x0F
    cells[1::2] = block >> 4
    assert not cells[dims:].any()  # the padding nibble of an odd d
    return cells[:dims]


def assert_contained(vectors, lower, upper, block):
    edges = cell_edges(lower, upper)
    dims = edges.shape[1]
    cells = unpack(block, dims)
    values = np.asarray(vectors, dtype=np.float64).T
    columns = np.arange(dims)[:, np.newaxis]
    assert np.all(edges[cells, columns] <= values)
    assert np.all(values <= edges[cells + 1, columns])


def members(seed, n, dims, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return (offset + scale * rng.standard_normal((n, dims))).astype(np.float32)


class TestCellEdges:
    @pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (1e3, 1e-3), (-7e5, 3e4)])
    def test_edges_tile_the_rectangle(self, offset, scale):
        vectors = members(1, 40, 7, scale, offset).astype(np.float64)
        lower, upper = vectors.min(axis=0), vectors.max(axis=0)
        edges = cell_edges(lower, upper)
        assert edges.shape == (CELLS + 1, 7) and edges.dtype == np.float64
        assert edges[0].tobytes() == lower.tobytes()
        assert edges[CELLS].tobytes() == upper.tobytes()
        assert np.all(np.diff(edges, axis=0) >= 0.0)

    def test_zero_width_dimension_has_equal_edges(self):
        edges = cell_edges(np.array([2.5, -1.0]), np.array([2.5, 3.0]))
        assert np.all(edges[:, 0] == 2.5)
        assert np.all(np.diff(edges[:, 1]) > 0.0)

    def test_float32_bounds_give_the_edges_of_their_float64_values(self):
        """The saver hands the encoder float32 bounds, a loaded index
        bounds with float64 ones: same numbers, same edges."""
        vectors = members(2, 30, 5, 30.0)
        lower32, upper32 = vectors.min(axis=0), vectors.max(axis=0)
        assert (
            cell_edges(lower32, upper32).tobytes()
            == cell_edges(lower32.astype(np.float64), upper32.astype(np.float64)).tobytes()
        )


class TestEncodeCells:
    @pytest.mark.parametrize("dims", [1, 2, 5, 24])
    def test_every_member_lies_in_its_cell(self, dims):
        vectors = members(dims, 200, dims, 3.0, 11.0)
        lower, upper = vectors.min(axis=0), vectors.max(axis=0)
        block = encode_cells(vectors, lower, upper)
        assert block.dtype == np.uint8 and block.shape == ((dims + 1) // 2, 200)
        assert_contained(vectors, lower, upper, block)
        cells = unpack(block, dims)
        # The rectangle is the members' own: both end cells are in use.
        assert np.all(cells.min(axis=1) == 0) and np.all(cells.max(axis=1) == CELLS - 1)

    def test_values_on_cell_edges(self):
        """Every edge of a dyadic rectangle is itself a stored value."""
        lower, upper = np.zeros(3), np.full(3, 16.0)
        vectors = np.repeat(np.arange(17.0)[:, np.newaxis], 3, axis=1).astype(np.float32)
        block = encode_cells(vectors, lower, upper)
        assert_contained(vectors, lower, upper, block)
        cells = unpack(block, 3)
        assert np.all(np.abs(cells[0] - np.minimum(np.arange(17), 15)) <= 1)

    def test_single_member_and_zero_width(self):
        vectors = np.array([[1.5, -2.0, 0.0]], dtype=np.float32)
        block = encode_cells(vectors, vectors[0], vectors[0])
        assert_contained(vectors, vectors[0], vectors[0], block)

    def test_a_member_outside_the_rectangle_is_refused(self):
        vectors = members(3, 20, 4)
        lower, upper = vectors.min(axis=0), vectors.max(axis=0)
        shrunk = upper.copy()
        shrunk[2] = np.nextafter(upper[2], np.float32(-np.inf))
        with pytest.raises(ValueError, match="outside the rectangle"):
            encode_cells(vectors, lower, shrunk)

    def test_wrong_dimensionality_is_refused(self):
        with pytest.raises(ValueError, match="expected"):
            encode_cells(np.zeros((4, 3), dtype=np.float32), np.zeros(2), np.ones(2))

    def test_nibble_order(self):
        """Even dimension in the low nibble, odd in the high one."""
        vectors = np.array([[0.0, 16.0, 8.0], [16.0, 0.0, 8.0]], dtype=np.float32)
        block = encode_cells(vectors, np.zeros(3), np.full(3, 16.0))
        assert block.shape == (2, 2)
        assert block[0].tolist() == [0xF0, 0x0F]
        assert np.all(block[1] >> 4 == 0)


def write(path, chunks, dims, table_crc=7, index_crc=9):
    write_code_file(
        str(path),
        dims,
        len(chunks),
        ((v, v.min(axis=0), v.max(axis=0)) for v in chunks),
        table_crc,
        index_crc,
    )


class TestFileLayout:
    def test_roundtrip_and_size(self, tmp_path):
        chunks = [members(seed, n, 5) for seed, n in enumerate([9, 1, 30])]
        path = tmp_path / "chunks.va"
        write(path, chunks, 5)
        assert path.read_bytes()[:8] == CODE_MAGIC
        assert os.path.getsize(path) == HEADER_BYTES + sum(3 * len(v) + 4 for v in chunks)
        with CodeFileReader(str(path), 5, [9, 1, 30], 7, 9) as reader:
            assert len(reader) == 3
            for chunk_id in (2, 0, 1):
                vectors = chunks[chunk_id]
                block = reader.read_block(chunk_id)
                assert not block.flags.writeable
                expected = encode_cells(vectors, vectors.min(axis=0), vectors.max(axis=0))
                assert np.array_equal(block, expected)

    def test_each_block_carries_its_own_crc(self, tmp_path):
        chunks = [members(4, 6, 2), members(5, 3, 2)]
        path = tmp_path / "chunks.va"
        write(path, chunks, 2)
        raw = path.read_bytes()
        first = raw[HEADER_BYTES : HEADER_BYTES + 6]
        (stored,) = struct.unpack_from("<I", raw, HEADER_BYTES + 6)
        assert stored == zlib.crc32(first)

    def test_a_short_chunk_sequence_publishes_nothing(self, tmp_path):
        path = tmp_path / "chunks.va"
        vectors = members(6, 5, 3)
        with pytest.raises(ValueError, match="promised 2"):
            write_code_file(
                str(path), 3, 2, iter([(vectors, vectors.min(axis=0), vectors.max(axis=0))]), 0, 0
            )
        assert os.listdir(tmp_path) == []
