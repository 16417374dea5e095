"""The code consult against its pre-change self, bound by bound.

``ChunkSearcher`` builds every chunk's cell edges once, and adds a code
block to table offsets held in the narrowest unsigned type that numbers
every table entry; :mod:`reference_code_bound` keeps the consult that
rebuilt the edges per call and widened the block to intp.  Both must
return the same float, bit for bit, for every query and chunk: at d = 1
and 2 (uint8 offsets), 3, 5 and 24 (uint16, odd d padding a nibble) over
lattice coordinates, duplicated members and queries on members and
corners, and at d = 514 (257 code bytes, 65,792 table entries: uint32),
where a planted twin with uint16 offsets wraps the last table onto the
first and must fail.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_code_bound as reference
from descriptors import from_vectors
from repro.core.chunk import Chunk, ChunkSet
from repro.core.chunk_index import build_chunk_index
from repro.core.search import ChunkSearcher
from repro.storage.code_file import CELLS, cell_edges, encode_cells

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``).
EXAMPLES = settings().max_examples // settings.get_profile("tier1").max_examples


class MemoryCodes:
    """``ChunkIndex.codes`` without a file: each chunk's encoded block."""

    def __init__(self, index):
        self.blocks = [
            encode_cells(index.read_chunk(meta.chunk_id)[1], meta.lower, meta.upper)
            for meta in index.metas
        ]

    def __len__(self):
        return len(self.blocks)

    def read_block(self, chunk_id):
        return self.blocks[chunk_id]

    def close(self):
        pass


def build(seed, dims, sizes, lattice, offset):
    """``(coded index, queries)``: small chunks that share a member and
    hold a duplicate, and queries on members, corners and in between."""
    rng = np.random.default_rng(seed)
    chunks = []
    for n in sizes:
        if lattice:
            members = offset + rng.integers(-2, 3, size=(n, dims))
        else:
            members = offset + rng.standard_normal((n, dims))
        members = members.astype(np.float32)
        if chunks:
            members[0] = chunks[0][0]
        if n > 1:
            members[-1] = members[0]
        chunks.append(members)
    collection = from_vectors(np.vstack(chunks))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    chunk_set = ChunkSet(
        collection,
        [Chunk.from_rows(collection, range(a, b)) for a, b in zip(starts, starts[1:])],
    )
    index = build_chunk_index(collection, chunk_set)
    index = dataclasses.replace(index, codes=MemoryCodes(index))
    lower, upper = index.rectangle_matrices()
    queries = np.vstack(
        [
            offset + 2.0 * rng.standard_normal((3, dims)),
            collection.vectors.astype(np.float64)[:: max(1, len(collection) // 6)],
            lower,
            upper,
            0.5 * (lower + upper),
        ]
    )
    return index, queries


def mismatches(searcher, queries):
    """``(query row, chunk id, bound, reference)`` wherever the consult
    and the reference differ in any bit."""
    found = []
    for row, query in enumerate(queries):
        for chunk_id in range(searcher.index.n_chunks):
            bound = searcher.code_bound(query, chunk_id)
            expected = reference.code_bound(searcher, query, chunk_id)
            if bound.hex() != expected.hex():
                found.append((row, chunk_id, bound, expected))
    return found


@st.composite
def cases(draw):
    return dict(
        seed=draw(st.integers(0, 2**16)),
        dims=draw(st.sampled_from([1, 2, 3, 5, 24])),
        sizes=draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)),
        lattice=draw(st.booleans()),
        offset=draw(st.sampled_from([0.0, 1e3])),
    )


class TestConsultEqualsReference:
    @given(cases())
    @settings(max_examples=60 * EXAMPLES, deadline=None)
    def test_every_bound_bit_for_bit(self, case):
        index, queries = build(**case)
        searcher = ChunkSearcher(index)
        assert mismatches(searcher, queries) == [], case

    @given(cases())
    @settings(max_examples=30 * EXAMPLES, deadline=None)
    def test_edges_are_each_chunks_own(self, case):
        index, _ = build(**case)
        edges = ChunkSearcher(index)._code_edges
        assert edges.shape == (index.n_chunks, CELLS + 1, index.dimensions)
        for meta in index.metas:
            own = cell_edges(meta.lower, meta.upper)
            assert np.array_equal(edges[meta.chunk_id], own)
            assert own.tobytes() == reference.cell_edges(meta.lower, meta.upper).tobytes()

    def test_wide_descriptors_need_uint32_offsets(self):
        index, queries = build(0, 514, [7, 1, 12], False, 0.0)
        searcher = ChunkSearcher(index)
        assert searcher._code_table_starts.dtype == np.uint32
        assert mismatches(searcher, queries) == []

    def test_uint16_offsets_fail_at_514_dimensions(self):
        """The planted twin: offsets that wrap at 65,536 send byte 256 to
        table 0, and the comparison above catches it."""
        index, queries = build(0, 514, [7, 1, 12], False, 0.0)
        twin = ChunkSearcher(index)
        twin._code_table_starts = twin._code_table_starts.astype(np.uint16)
        assert mismatches(twin, queries) != []


@pytest.mark.parametrize(
    "dims, dtype",
    [(1, np.uint8), (2, np.uint8), (3, np.uint16), (24, np.uint16),
     (512, np.uint16), (513, np.uint32), (514, np.uint32)],
)
def test_offsets_take_the_narrowest_type_that_numbers_every_entry(dims, dtype):
    index, _ = build(1, dims, [2], False, 0.0)
    starts = ChunkSearcher(index)._code_table_starts
    assert starts.dtype == dtype
    assert int(starts[-1, 0]) + 255 <= np.iinfo(dtype).max
    assert starts[:, 0].tolist() == list(range(0, (dims + 1) // 2 * 256, 256))


def test_an_index_without_codes_builds_no_edges():
    index, _ = build(2, 6, [3, 4], False, 0.0)
    assert ChunkSearcher(dataclasses.replace(index, codes=None))._code_edges is None
