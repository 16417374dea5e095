"""The rectangle bound is sound against the kernel that judges a scan.

A pruned chunk is one whose members the expanded-form kernel
(``pairwise_squared_distances``) would all have placed beyond the k-th
distance.  So the property is not "bound <= true distance" but "bound <=
sqrt of *that kernel's own value*, for every member" — including where the
kernel is at its worst: coordinates offset by 1e3 (cancellation error of
order 1e-9 in the squared distance), queries one ulp outside a face, and
exact duplicates, where the kernel may return exactly 0.

Both guards were checked by mutation: with ``_rect_slack = 0`` the first
property fails (on the offset cases, and already at offset 0 for a query
one ulp outside a face), and with the pruner's ``>`` made ``>=`` the
second fails on the lattice cases (distance-0 ties).

The *code bound* (``ChunkSearcher.code_bound``: the rectangle distance to
each member's cell, minimised over the members) is held to the same
property on the same cases — they bring zero-width dimensions (single
members, duplicates), values on cell edges (the lattice) and queries equal
to a stored point — plus its own invariant: every member lies in the
closed cell its code names.  Mutations checked there: encoding against a
rectangle one ulp too small is refused by the encoder; dropping the slack
fails the property on the offset cases.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk import Chunk, ChunkSet
from repro.core.chunk_index import build_chunk_index
from repro.core.distance import pairwise_squared_distances
from repro.core.ground_truth import exact_knn
from repro.core.search import ChunkSearcher
from repro.storage.code_file import CELLS, cell_edges, encode_cells
from descriptors import from_vectors

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``).
EXAMPLES = settings().max_examples // settings.get_profile("tier1").max_examples


def build(seed, dims, sizes, offset, scale, lattice):
    """``(index, queries)``: a few small chunks and the queries that
    stress their rectangles.

    ``lattice`` draws small-integer coordinates: every kernel product and
    sum is then exact, a duplicate's distance is exactly 0, and chunks
    share members — the ties a non-strict pruner would lose.  Otherwise
    the first member of every chunk is still a copy of chunk 0's, and row
    1 of a chunk a copy of its row 0.
    """
    rng = np.random.default_rng(seed)
    chunks = []
    for n in sizes:
        if lattice:
            members = offset + rng.integers(-2, 3, size=(n, dims))
        else:
            members = offset + scale * rng.standard_normal((n, dims))
        members = members.astype(np.float32)
        if chunks:
            members[0] = chunks[0][0]
        if n > 1 and rng.random() < 0.5:
            members[1] = members[0]
        chunks.append(members)
    collection = from_vectors(np.vstack(chunks))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    chunk_set = ChunkSet(
        collection,
        [Chunk.from_rows(collection, range(a, b)) for a, b in zip(starts, starts[1:])],
    )
    index = build_chunk_index(collection, chunk_set)

    queries = [offset + 2.0 * scale * rng.standard_normal((3, dims))]
    for members in chunks:
        members = members.astype(np.float64)
        lower, upper = members.min(axis=0), members.max(axis=0)
        on_face = members[np.argmin(members[:, 0])].copy()  # attains lower[0]
        outside_face = on_face.copy()
        outside_face[0] = np.nextafter(lower[0], -np.inf)
        queries.append(
            np.stack(
                [
                    members[0],  # an exact duplicate of a stored member
                    lower,  # a corner
                    upper,
                    np.nextafter(lower, -np.inf),  # one ulp outside it, every dim
                    np.nextafter(upper, np.inf),
                    on_face,
                    outside_face,  # one ulp outside one face
                ]
            )
        )
    return index, np.vstack(queries)


@st.composite
def cases(draw):
    return dict(
        seed=draw(st.integers(0, 2**16)),
        dims=draw(st.integers(1, 24)),
        sizes=draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)),
        offset=draw(st.sampled_from([0.0, 1e3])),
        scale=draw(st.sampled_from([1e-3, 1.0, 30.0])),
        lattice=draw(st.booleans()),
    )


def kernel_distances(queries, index, chunk_id):
    """``(n_queries, n_members)`` distances exactly as a scan computes
    them: the expanded-form kernel on the float64-promoted chunk."""
    _, vectors = index.read_chunk(chunk_id)
    members = np.ascontiguousarray(vectors, dtype=np.float64)
    return np.sqrt(pairwise_squared_distances(queries, members))


def unslackened_bounds(index, queries):
    """The rectangle distance in direct form, no slack: what the bound
    would be if the kernel were exact."""
    lower, upper = index.rectangle_matrices()
    gap = np.maximum(lower[np.newaxis] - queries[:, np.newaxis], 0.0) + np.maximum(
        queries[:, np.newaxis] - upper[np.newaxis], 0.0
    )
    return np.sqrt(np.einsum("qcd,qcd->qc", gap, gap))


class TestRectangleBoundSoundness:
    @given(cases())
    @settings(max_examples=150 * EXAMPLES, deadline=None)
    def test_bound_never_exceeds_the_kernel_distance_of_any_member(self, case):
        index, queries = build(**case)
        bounds = ChunkSearcher(index).rectangle_bounds(queries)
        assert bounds.shape == (len(queries), index.n_chunks)
        assert np.all(bounds >= 0.0)
        for chunk_id in range(index.n_chunks):
            # BLAS may round a one-row and an N-row product differently in
            # the last bit: the bound must sit under both.
            cohort = kernel_distances(queries, index, chunk_id).min(axis=1)
            alone = np.asarray(
                [
                    kernel_distances(query[np.newaxis], index, chunk_id).min()
                    for query in queries
                ]
            )
            assert np.all(bounds[:, chunk_id] <= cohort), (chunk_id, case)
            assert np.all(bounds[:, chunk_id] <= alone), (chunk_id, case)

    def test_bounds_do_not_depend_on_the_cohort(self):
        index, queries = build(3, 24, [5, 1, 9], 1e3, 1.0, False)
        searcher = ChunkSearcher(index)
        together = searcher.rectangle_bounds(queries)
        for row, query in enumerate(queries):
            alone = searcher.rectangle_bounds(query[np.newaxis])[0]
            assert np.array_equal(alone, together[row])

    def test_the_slack_is_load_bearing_and_small(self):
        """The offset cases really are ones where the exact rectangle
        distance *exceeds* what the kernel reports — without the slack the
        pruner would be unsound there — and the slack costs nothing where
        pruning happens: a bound of descriptor scale loses under 1e-9."""
        violations = 0
        for seed in range(20):
            index, queries = build(seed, 24, [6, 6], 1e3, 1.0, False)
            exact = unslackened_bounds(index, queries)
            for chunk_id in range(index.n_chunks):
                nearest = kernel_distances(queries, index, chunk_id).min(axis=1)
                violations += int(np.sum(exact[:, chunk_id] > nearest))
        assert violations > 0

        index, queries = build(0, 24, [6, 6], 0.0, 1.0, False)
        exact = unslackened_bounds(index, queries)
        bounds = ChunkSearcher(index).rectangle_bounds(queries)
        far = exact > 0.05
        assert far.any()
        assert np.all(bounds[far] <= exact[far])
        assert np.all(bounds[far] >= exact[far] * (1 - 1e-9))

    def test_a_query_inside_a_rectangle_gets_zero(self):
        index, queries = build(1, 6, [7, 4], 0.0, 1.0, False)
        lower, upper = index.rectangle_matrices()
        inside = 0.5 * (lower + upper)  # one query per chunk, at its centre
        bounds = ChunkSearcher(index).rectangle_bounds(inside)
        assert np.all(np.diag(bounds) == 0.0)


class MemoryCodes:
    """``ChunkIndex.codes`` without a file: the blocks ``ChunkIndex.save``
    would write (the rectangles here are float32-exact, so the saved ones
    are the same), handed out by chunk id."""

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


def with_codes(index):
    return dataclasses.replace(index, codes=MemoryCodes(index))


class TestCodeBoundSoundness:
    @given(cases())
    @settings(max_examples=150 * EXAMPLES, deadline=None)
    def test_every_member_lies_in_its_stored_cell(self, case):
        index, _ = build(**case)
        index = with_codes(index)
        for meta in index.metas:
            block = index.codes.read_block(meta.chunk_id)
            dims = index.dimensions
            assert block.shape == ((dims + 1) // 2, meta.n_descriptors)
            cells = np.empty((2 * block.shape[0], block.shape[1]), dtype=np.intp)
            cells[0::2], cells[1::2] = block & 0x0F, block >> 4
            assert not cells[dims:].any()
            cells = cells[:dims]
            edges = cell_edges(meta.lower, meta.upper)
            assert edges.shape == (CELLS + 1, dims)
            members = index.read_chunk(meta.chunk_id)[1].astype(np.float64).T
            columns = np.arange(dims)[:, np.newaxis]
            assert np.all(edges[cells, columns] <= members), case
            assert np.all(members <= edges[cells + 1, columns]), case

    @given(cases())
    @settings(max_examples=150 * EXAMPLES, deadline=None)
    def test_bound_never_exceeds_the_kernel_distance_of_any_member(self, case):
        index, queries = build(**case)
        searcher = ChunkSearcher(with_codes(index))
        for chunk_id in range(index.n_chunks):
            bounds = np.asarray(
                [searcher.code_bound(query, chunk_id) for query in queries]
            )
            assert np.all(bounds >= 0.0)
            # Under the N-row product of a cohort and the one-row product
            # of a lone query alike, as for the rectangle.
            cohort = kernel_distances(queries, index, chunk_id).min(axis=1)
            alone = np.asarray(
                [
                    kernel_distances(query[np.newaxis], index, chunk_id).min()
                    for query in queries
                ]
            )
            assert np.all(bounds <= cohort), (chunk_id, case)
            assert np.all(bounds <= alone), (chunk_id, case)

    def test_the_cells_see_what_the_rectangle_cannot(self, clutter_collection):
        """Where it matters the code bound is the larger one: a chunk that
        is a tight pattern plus one far clutter point has a rectangle
        reaching across the space and cells that do not."""
        from repro.chunking.srtree_chunker import SRTreeChunker

        chunking = SRTreeChunker(leaf_capacity=16).form_chunks(clutter_collection)
        index = with_codes(build_chunk_index(chunking.retained, chunking.chunk_set))
        searcher = ChunkSearcher(index)
        queries = np.random.default_rng(7).uniform(-4.0, 4.0, size=(8, 6))
        rectangle = searcher.rectangle_bounds(queries)
        codes = np.asarray(
            [
                [searcher.code_bound(query, chunk_id) for chunk_id in range(index.n_chunks)]
                for query in queries
            ]
        )
        assert np.all(codes >= rectangle * (1 - 1e-9))
        assert np.median(codes / np.maximum(rectangle, 1e-12)) > 1.15

    def test_a_query_equal_to_a_member_gets_zero(self):
        index, _ = build(5, 24, [6, 1, 9], 1e3, 1.0, False)
        searcher = ChunkSearcher(with_codes(index))
        for chunk_id in range(index.n_chunks):
            for member in index.read_chunk(chunk_id)[1].astype(np.float64):
                assert searcher.code_bound(member, chunk_id) == 0.0


class TestStrictComparison:
    @given(cases())
    @settings(max_examples=100 * EXAMPLES, deadline=None)
    def test_ties_and_duplicates_are_never_pruned_away(self, case):
        """Pruned == unpruned on exactly the queries above: a chunk whose
        bound *equals* the k-th distance (0 == 0 for a duplicate held by
        two chunks) may hold the smaller id and must be scanned.

        The sphere is blinded (radii inflated), so every prune here is the
        rectangle's.  It has to be: ``d(q, centroid) - radius`` carries no
        rounding slack, and when the query duplicates a chunk's *farthest*
        member — both members of a two-member chunk — it is 0 in exact
        arithmetic and +-1e-20 in floating point, which this generator
        hits (a defect older than the rectangle; ROADMAP item 1).
        """
        self.assert_pruned_equals_unpruned(case, coded=False)

    @given(cases())
    @settings(max_examples=100 * EXAMPLES, deadline=None)
    def test_ties_and_duplicates_survive_the_code_bound(self, case):
        """The same with cell codes on the index: a member at distance 0
        lies in a cell at distance 0, the code bound of its chunk is 0 and
        ``0 > 0`` excuses nothing.  (With the consult's ``>`` made ``>=``
        this fails on the lattice cases.)"""
        self.assert_pruned_equals_unpruned(case, coded=True)

    @staticmethod
    def assert_pruned_equals_unpruned(case, coded):
        index, queries = build(**case)
        index = dataclasses.replace(
            index,
            metas=[
                dataclasses.replace(meta, radius=4.0 * meta.radius + 1.0)
                for meta in index.metas
            ],
        )
        if coded:
            index = with_codes(index)
        for k in (1, 3):
            want = ChunkSearcher(index, prune=False).search_batch(queries, k=k)
            got = ChunkSearcher(index, prune=True).search_batch(queries, k=k)
            for got_result, want_result in zip(got, want):
                assert (
                    got_result.neighbor_ids().tolist()
                    == want_result.neighbor_ids().tolist()
                ), case
                assert [n.distance for n in got_result.neighbors] == [
                    n.distance for n in want_result.neighbors
                ]
                assert got_result.stop_reason == want_result.stop_reason
                assert got_result.trace.events == want_result.trace.events

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_sphere_prune_loses_exact_tie(self):
        """The defect the blinded sphere above hides, pinned where a
        derandomized tier-1 still sees it: query 7 duplicates the farthest
        member of a two-member chunk, the sphere bound comes out 1e-20
        above the k-th distance 0 and the chunk holding the smaller id is
        pruned.  The fix of item 1 deletes the marker."""
        index, queries = build(
            seed=2, dims=1, sizes=[2, 2, 1], offset=0.0, scale=0.001, lattice=False
        )
        want = ChunkSearcher(index, prune=False).search(queries[7], k=1)
        got = ChunkSearcher(index, prune=True).search(queries[7], k=1)
        assert want.completed and got.completed
        assert want.neighbor_ids().tolist() == [0]
        assert got.neighbor_ids().tolist() == want.neighbor_ids().tolist()

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_completion_proof_loses_exact_tie(self):
        """The completion proof's half of the same defect, which needs no
        pruning: eleven copies of one point over SR leaves of eight.  Id 0
        is the farthest member of chunk 0, so that chunk's sphere bound
        ``d(q, centroid) - radius`` equals the k-th distance in exact
        arithmetic; in floating point it comes out 3.5e-16 above it, the
        proof ``remaining_lb > kth`` fires after chunks 1 and 2, and ids
        [1, 2, 3] are returned ``completed`` where brute force says
        [0, 1, 2].  Pruning on or off, the answer is the same."""
        base = np.random.default_rng(48866).standard_normal((22, 1))
        base *= 0.6912147301050365
        base[:11] = base[0]
        collection = from_vectors(base.astype(np.float32))
        chunking = SRTreeChunker(leaf_capacity=8).form_chunks(collection)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        query = np.random.default_rng(1).standard_normal(1)
        want = exact_knn(collection, query, 3).tolist()
        for prune in (False, True):
            got = ChunkSearcher(index, prune=prune).search(query, k=3)
            assert got.completed
            assert got.neighbor_ids().tolist() == want
