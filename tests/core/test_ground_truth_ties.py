"""Threshold-selected ground truth against the full-sort oracle, on ties.

``top_k_smallest`` and both scans in ``repro.core.ground_truth`` keep only
the candidates not above the k-th value before they sort.  That is exact
only if every tie at the k-th value — and any NaN — survives the cut, so
these properties build collections where the tie is the whole story:

* at least ``k + 3`` descriptors lie at exactly the k-th distance (lattice
  coordinates, so both distance kernels compute every distance exactly);
* the tie group straddles a block boundary (``BLOCK_ROWS`` shrunk in the
  shipped module and in the oracle alike);
* ``k`` is 1, 30 or the whole collection, and ids are row numbers or a
  shuffled, gapped id space.

``reference_ground_truth.py`` is the full-sort oracle, kept verbatim.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ground_truth as oracle
from descriptors import from_vectors
from repro.core import ground_truth
from repro.core.distance import top_k_smallest


@st.composite
def tied_collections(draw):
    """``(collection, queries, k, block_rows)``; ``queries[0]`` has at
    least ``k + 3`` descriptors at its k-th distance unless ``k`` is n."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from((1, 2, 3, 24)))
    k_kind = draw(st.sampled_from(("1", "30", "n")))
    k = 1 if k_kind == "1" else 30
    query = rng.integers(-3, 4, size=d)
    tie = rng.integers(-2, 3, size=d)
    tie[0] = tie[0] or 1  # a non-zero offset: the tie lies off the query
    radius2 = int(tie @ tie)

    n_closer = draw(st.integers(0, k - 1))
    closer = rng.integers(-2, 3, size=(n_closer, d))
    closer[(closer * closer).sum(axis=1) >= radius2] = 0  # the query itself
    # Every sign flip and coordinate permutation of ``tie`` is as far away.
    n_ties = k + 3 + draw(st.integers(0, 8))
    tied = np.stack(
        [rng.permutation(tie * rng.choice((-1, 1), size=d)) for _ in range(n_ties)]
    )
    far = 2 * tied[: draw(st.integers(0, 12))]
    offsets = np.concatenate([closer, tied, far])
    kinds = np.repeat([0, 1, 2], [len(closer), len(tied), len(far)])
    shuffle = rng.permutation(len(offsets))
    offsets, kinds = offsets[shuffle], kinds[shuffle]
    n = len(offsets)

    ids = None
    if draw(st.booleans()):
        ids = 3 * rng.permutation(n).astype(np.int64) + 7
    collection = from_vectors((query + offsets).astype(np.float32), ids=ids)
    tie_rows = np.flatnonzero(kinds == 1)
    # The first block boundary falls between two members of the tie group.
    block_rows = draw(st.integers(int(tie_rows[0]) + 1, int(tie_rows[-1])))
    others = rng.integers(-3, 4, size=(2, d))
    queries = np.vstack([query, others]).astype(np.float64)
    return collection, queries, (n if k_kind == "n" else k), block_rows


class TestTiesAcrossBlocks:
    @given(case=tied_collections())
    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    def test_same_ids_as_the_full_sort(self, case):
        collection, queries, k, block_rows = case
        if k < len(collection):  # the strategy's promise, checked
            distances = ((collection.vectors - queries[0]) ** 2).sum(axis=1)
            assert np.count_nonzero(distances == np.sort(distances)[k - 1]) >= k + 3
        with mock.patch.object(ground_truth, "BLOCK_ROWS", block_rows), \
                mock.patch.object(oracle, "BLOCK_ROWS", block_rows):
            for query in queries:
                assert np.array_equal(
                    ground_truth.exact_knn(collection, query, k),
                    oracle.exact_knn(collection, query, k),
                )
            assert np.array_equal(
                ground_truth.exact_knn_batch(collection, queries, k),
                oracle.exact_knn_batch(collection, queries, k),
            )


SPECIAL_VALUES = (np.nan, -np.inf, np.inf, -0.0, 0.0, 1.0, 1.0, 2.0)


class TestTopKOrder:
    @given(
        values=st.lists(
            st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(-4, 4)),
            min_size=1,
            max_size=80,
        ),
        extra=st.integers(-2, 3),
    )
    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    def test_nan_and_ties_ordered_as_the_stable_argsort(self, values, extra):
        values = np.asarray(values, dtype=np.float64)
        for k in {1, min(30, len(values)), max(0, len(values) + extra)}:
            got = top_k_smallest(values, k)
            assert got.dtype == np.intp
            assert np.array_equal(got, oracle.top_k_smallest(values, k))
            assert np.array_equal(got, np.argsort(values, kind="stable")[:k])
