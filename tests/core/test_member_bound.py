"""The member bound is sound against the kernel that judges a scan.

A chunk the member bound settles (``ChunkSearcher._member_bound``) is one
whose scan would have admitted nothing: no member's *kernel* distance —
``expanded_squared_distances`` on the float64-promoted rows with the kept
norms, one query row, as a scan of a cohort of one computes it — reaches
the k-th distance.  So the property is "bound <= sqrt of that kernel's value,
for every member", on the cases where float32 is at its worst: rows that
are one float32 ulp apart or exact duplicates, queries just off the float32
grid (a component within a hair of a rounding midpoint, so ``fl32(-2 q)``
errs by nearly half an ulp), and norms from ``2**-72`` (the float32 product
underflows) to ``2**40``, with and without an offset of 1e3 (cancellation).

The property bites: with the product's slack one gamma short
(``gamma_{d-1}`` for ``gamma_d``) or without the query's rounding term,
it fails on these cases.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from descriptors import from_vectors
from repro.core.chunk import Chunk, ChunkSet
from repro.core.chunk_index import build_chunk_index
from repro.core.distance import expanded_squared_distances, squared_norms
from repro.core.search import _UNIT_ROUNDOFF32, ChunkSearcher

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``): 20,000 examples of the property there.
EXAMPLES = settings().max_examples // settings.get_profile("tier1").max_examples


def build(dims, scale, offset, sizes, seed):
    """``(index, queries)``: a few in-memory chunks of near-tie and
    duplicate-heavy float32 rows, and float64 queries off the float32 grid."""
    rng = np.random.default_rng(seed)
    center = offset * scale
    chunks = []
    for n in sizes:
        rows = [center + scale * rng.standard_normal(dims)]
        for _ in range(n - 1):
            kind = rng.integers(3)
            if kind == 0:  # an exact duplicate
                row = rows[-1].copy()
            elif kind == 1:  # one float32 ulp away in some dimensions
                row = np.float32(rows[-1])
                step = np.where(rng.random(dims) < 0.5, np.inf, -np.inf)
                moved = rng.random(dims) < 0.5
                row = np.where(moved, np.nextafter(row, step.astype(np.float32)), row)
            else:
                row = center + scale * rng.standard_normal(dims)
            rows.append(np.asarray(row, dtype=np.float64))
        chunks.append(np.asarray(rows, dtype=np.float32))
    collection = from_vectors(np.vstack(chunks))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    chunk_set = ChunkSet(
        collection,
        [Chunk.from_rows(collection, range(a, b)) for a, b in zip(starts, starts[1:])],
    )
    index = build_chunk_index(collection, chunk_set)

    members = np.vstack(chunks).astype(np.float64)
    queries = []
    for member in members[rng.permutation(len(members))[:4]]:
        # Each component within a hair (or a random part) of half a float32
        # ulp from the grid point, on a random side.
        ulp = np.spacing(np.abs(member).astype(np.float32)).astype(np.float64)
        part = np.where(rng.random(dims) < 0.5, 0.5 - 2.0**-20, rng.random(dims) / 2)
        queries.append(member + np.where(rng.random(dims) < 0.5, 1, -1) * part * ulp)
    queries.append(0.5 * (members[0] + members[-1]))
    for spread in (2.0**-10, 1.0, 2.0**10):  # small, alike and large norms
        queries.append(center + spread * scale * rng.standard_normal(dims))
    return index, np.asarray(queries)


@st.composite
def cases(draw):
    return dict(
        dims=draw(st.sampled_from([1, 2, 24])),
        scale=2.0 ** draw(st.sampled_from([-72, -20, 0, 20, 40])),
        offset=draw(st.sampled_from([0.0, 1e3])),
        sizes=draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def member_bounds(searcher, query):
    """``(bound, sqrt(min kernel value))`` per chunk for one query, each
    computed as a search of a cohort of one computes it."""
    index = searcher.index
    query = query[np.newaxis, :]
    query_sq_norms = squared_norms(query)
    member_query = searcher._member_query(query[0], float(query_sq_norms[0]))
    assert member_query is not None
    pairs = []
    for chunk_id in range(index.n_chunks):
        vectors = index.read_chunk(chunk_id)[1]
        bound = searcher._member_bound(member_query, chunk_id, vectors)
        norms = index.store.member_sq_norms(chunk_id, vectors)
        kernel = expanded_squared_distances(
            query, vectors.astype(np.float64), query_sq_norms, norms
        )
        pairs.append((bound, math.sqrt(kernel.min())))
    return pairs


def check(case, slack=None):
    """The property on one case; ``slack(d)``, when given, replaces the
    searcher's float32 slack per unit ``|q| sqrt(N)`` (a planted mutant)."""
    index, queries = build(**case)
    searcher = ChunkSearcher(index)
    assert searcher._member_terms is not None
    assert searcher._member_slack == honest(index.dimensions)
    if slack is not None:
        searcher._member_slack = slack(index.dimensions)
    for query in queries:
        for chunk_id, (bound, nearest) in enumerate(member_bounds(searcher, query)):
            assert 0.0 <= bound <= nearest, (chunk_id, query.tolist(), case)


def gamma(n):
    return n * _UNIT_ROUNDOFF32 / (1.0 - n * _UNIT_ROUNDOFF32)


def honest(d, product=gamma, query=True):
    """The float32 slack: the product's rounding ``2 gamma_d (1 + u)`` and
    the query's ``2 u``, either of which a mutant shrinks."""
    u = _UNIT_ROUNDOFF32
    return 2.0 * product(d) * (1.0 + u) + (2.0 * u if query else 0.0)


class TestMemberBoundSoundness:
    @given(cases())
    @settings(max_examples=800 * EXAMPLES, deadline=None)
    def test_bound_never_exceeds_the_kernel_distance_of_any_member(self, case):
        check(case)

    @pytest.mark.parametrize(
        "slack",
        [
            lambda d: honest(d, product=lambda d: gamma(d - 1)),
            lambda d: honest(d, query=False),
        ],
        ids=["one-gamma-short", "no-query-rounding"],
    )
    def test_a_planted_slack_fails_it(self, slack):
        @given(cases())
        @settings(max_examples=300, deadline=None, database=None, phases=[Phase.generate])
        def planted(case):
            check(case, slack)

        with pytest.raises(AssertionError):
            planted()

    def test_norms_too_long_for_float32_get_no_bound(self):
        """A query or member norm of 2**60 could overflow the float32
        product: the bound stands aside and the scan decides."""
        index, queries = build(2, 1.0, 0.0, [3], seed=1)
        searcher = ChunkSearcher(index)
        assert searcher._member_query(queries[0], 2.0**121) is None
        assert searcher._member_query(queries[0], 2.0**119) is not None
        index, queries = build(2, 2.0**62, 0.0, [3, 4], seed=1)
        assert ChunkSearcher(index)._member_terms is None
        assert ChunkSearcher(index).search(queries[0], k=2).completed


class TestTheTieInALaterChunk:
    """A member exactly at the k-th distance, in a chunk visited after the
    scans have settled, is not settled away: its smaller id wins the tie.

    ``k = 1`` around a query ``o`` on the float32 grid but far from the
    origin, so that the float32 product rounds ``F`` *above* the exact
    squared distance 4 on chunk B: chunk A (id 3 at distance 2) is scanned
    first, chunk C's members are all farther but its bounds reach below 2,
    so it is scanned and admits nothing, and chunk B holds id 0 at distance
    exactly 2.  Every value is exact in float64, so the kernel says 4 for
    both."""

    OFFSET = np.array([1009.75, 704.5])

    def index_and_query(self):
        rows = np.array(
            [
                [-2.0, 0.0],  # id 0, chunk B: the tie
                [-2.0, 6.0],  # id 1, chunk B
                [2.0, 3.0],  # id 2, chunk C
                [2.0, 0.0],  # id 3, chunk A
                [3.0, -2.0],  # id 4, chunk C
            ]
        )
        collection = from_vectors((rows + self.OFFSET).astype(np.float32))
        chunk_set = ChunkSet(
            collection,
            [Chunk.from_rows(collection, r) for r in ([3], [2, 4], [0, 1])],
        )
        return build_chunk_index(collection, chunk_set), self.OFFSET.copy()

    def test_the_bound_sits_under_the_tie_and_float32_alone_would_not(self):
        index, query = self.index_and_query()
        searcher = ChunkSearcher(index)
        (_, a), (_, c), (bound, b) = member_bounds(searcher, query)
        assert a == b == 2.0 and c > 2.0
        assert bound < 2.0
        # The float32 value itself overshoots: without its slack the chunk
        # holding the tie would be settled away.
        searcher._member_slack = 0.0
        assert member_bounds(searcher, query)[2][0] > 2.0

    def test_the_smaller_id_is_admitted(self):
        index, query = self.index_and_query()
        searcher = ChunkSearcher(index)
        asked = []
        bound = searcher._member_bound

        def recording(member_query, chunk_id, vectors):
            asked.append(chunk_id)
            return bound(member_query, chunk_id, vectors)

        searcher._member_bound = recording
        result = searcher.search(query, k=1)
        assert asked == [2]  # chunk B, after chunk C admitted nothing
        assert result.trace.chunk_ids == [0, 1, 2]
        assert result.trace.neighbors_found == [1, 1, 1]
        assert result.neighbor_ids().tolist() == [0]
        assert [n.distance for n in result.neighbors] == [2.0]
        assert result.chunks_pruned == 0 and result.completed
        # The recipe bites: without the float32 slack id 3 would stand.
        searcher._member_slack = 0.0
        assert searcher.search(query, k=1).neighbor_ids().tolist() == [3]
