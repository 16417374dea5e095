"""Unit and property tests for the distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import distance
from repro.core.distance import (
    BLOCK_ROWS,
    cell_squared_gaps,
    expanded_squared_distances,
    pairwise_squared_distances,
    squared_distances,
    squared_norms,
    top_k_smallest,
)


def brute_force_sq(query, points):
    return np.array([np.sum((p - query) ** 2) for p in points])


class TestSquaredDistances:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((50, 24))
        query = rng.standard_normal(24)
        np.testing.assert_allclose(
            squared_distances(query, points), brute_force_sq(query, points)
        )

    def test_zero_for_identical_point(self):
        q = np.array([1.0, 2.0, 3.0])
        d = squared_distances(q, np.array([[1.0, 2.0, 3.0]]))
        assert d[0] == 0.0

    def test_single_vector_promoted(self):
        d = squared_distances(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert d.shape == (1,)
        assert d[0] == pytest.approx(25.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            squared_distances(np.zeros(3), np.zeros((5, 4)))

    def test_3d_input_rejected(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            squared_distances(np.zeros(2), np.zeros((2, 2, 2)))

    def test_float32_inputs_promoted_exactly(self):
        points = np.array([[1.5, 2.5]], dtype=np.float32)
        d = squared_distances(np.array([0.5, 0.5], dtype=np.float32), points)
        assert d.dtype == np.float64
        assert d[0] == pytest.approx(5.0)

    def test_float32_blockwise_path_bit_identical(self):
        """Above BLOCK_ROWS the float32 input takes the blockwise
        promotion path; every row's reduction is independent of the
        blocking, so the result must be bit-identical to promoting the
        whole matrix up front."""
        from repro.core.distance import BLOCK_ROWS

        rng = np.random.default_rng(12)
        n = BLOCK_ROWS + 1000  # spills into a second block
        points = rng.standard_normal((n, 4)).astype(np.float32)
        query = rng.standard_normal(4).astype(np.float32)
        blocked = squared_distances(query, points)
        direct = squared_distances(query, points.astype(np.float64))
        np.testing.assert_array_equal(blocked, direct)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.integers(1, 8)),
            elements=st.floats(-1e3, 1e3),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_nonnegative_and_exact(self, points):
        query = points[0]
        d = squared_distances(query, points)
        assert np.all(d >= 0)
        assert d[0] == 0.0
        np.testing.assert_allclose(d, brute_force_sq(query, points), atol=1e-6)


class TestPairwise:
    def test_matches_rowwise(self):
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((7, 5))
        points = rng.standard_normal((13, 5))
        full = pairwise_squared_distances(queries, points)
        assert full.shape == (7, 13)
        for i, q in enumerate(queries):
            np.testing.assert_allclose(full[i], squared_distances(q, points))

    def test_blocking_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(4)
        queries = rng.standard_normal((3, 4))
        points = rng.standard_normal((25, 4))
        whole = pairwise_squared_distances(queries, points)
        monkeypatch.setattr(distance, "BLOCK_ROWS", 7)
        np.testing.assert_allclose(
            pairwise_squared_distances(queries, points), whole
        )

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            pairwise_squared_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_supplied_norms_bit_identical(self, monkeypatch):
        """Precomputed |p|^2 and |q|^2 terms (a searcher's centroid norms,
        a resident chunk's kept member norms, a cohort's query norms) must
        give the same matrix, bit for bit, as recomputing them in the
        kernel — the property that lets them be computed once."""
        rng = np.random.default_rng(13)
        queries = rng.standard_normal((6, 8))
        points = rng.standard_normal((21, 8)).astype(np.float32)
        promoted = points.astype(np.float64)
        norms = np.einsum("pd,pd->p", promoted, promoted)
        monkeypatch.setattr(distance, "BLOCK_ROWS", 7)
        np.testing.assert_array_equal(squared_norms(points), norms)
        with_norms = pairwise_squared_distances(
            queries,
            points,
            points_sq_norms=norms,
            queries_sq_norms=np.einsum("qd,qd->q", queries, queries),
        )
        without = pairwise_squared_distances(queries, points)
        np.testing.assert_array_equal(with_norms, without)

    def test_wrong_norms_length_rejected(self):
        with pytest.raises(ValueError, match="point norms"):
            pairwise_squared_distances(
                np.zeros((2, 3)), np.zeros((4, 3)), points_sq_norms=np.zeros(3)
            )

    @pytest.mark.parametrize("shape", [(3,), (1,), (2, 1), ()])
    def test_wrong_query_norms_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="query norms"):
            pairwise_squared_distances(
                np.zeros((2, 3)), np.zeros((4, 3)), queries_sq_norms=np.zeros(shape)
            )

    @pytest.mark.parametrize("n_queries", [1, 64])
    @pytest.mark.parametrize("n_points", [0, 1, 400, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("layout", ["C", "F", "float32"])
    def test_checked_entry_is_the_body(self, n_queries, n_points, layout):
        """The public kernel adds checks and promotion only: its matrix is
        the body's, bit for bit, for the rows it hands the body and their
        :func:`squared_norms` — a Fortran-order or float32 input included,
        and past one block of points."""
        rng = np.random.default_rng(n_queries + n_points)
        queries = rng.standard_normal((n_queries, 24)) * 40.0
        points = rng.standard_normal((n_points, 24)) * 40.0
        if layout == "F":
            queries, points = np.asfortranarray(queries), np.asfortranarray(points)
        elif layout == "float32":
            points = points.astype(np.float32)
        got = pairwise_squared_distances(queries, points)
        want = expanded_squared_distances(
            queries, points, squared_norms(queries), squared_norms(points)
        )
        assert got.shape == want.shape == (n_queries, n_points)
        assert got.dtype == want.dtype == np.float64
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize(
        "queries, points, norms",
        [
            (np.zeros((2, 3)), np.zeros((4, 5)), {}),
            (np.zeros((2, 3, 1)), np.zeros((4, 3)), {}),
            (np.zeros((2, 3)), np.zeros((4, 3, 1)), {}),
            (np.zeros((2, 3)), np.zeros((4, 3)), {"points_sq_norms": np.zeros(3)}),
            (np.zeros((2, 3)), np.zeros((4, 3)), {"queries_sq_norms": np.zeros(4)}),
        ],
    )
    def test_every_shape_check_still_raises(self, queries, points, norms):
        with pytest.raises(ValueError):
            pairwise_squared_distances(queries, points, **norms)

    def test_expanded_form_agrees_with_direct_form(self):
        """The |q|^2 - 2 q.p + |p|^2 kernel must agree with the direct
        (q - p)^2 sum to 1e-9 relative, over magnitudes spanning the
        descriptor range and including coincident rows."""
        rng = np.random.default_rng(6)
        for scale in (1e-3, 1.0, 1e3):
            queries = rng.standard_normal((11, 24)) * scale
            points = rng.standard_normal((40, 24)) * scale
            points[7] = queries[3]  # exercise the clamp at zero
            expanded = pairwise_squared_distances(queries, points)
            direct = np.vstack(
                [squared_distances(q, points) for q in queries]
            )
            # 1e-9 agreement relative to the problem magnitude: the
            # coincident row makes the direct form exactly 0.0 while
            # cancellation leaves the expanded form a few ulps of |q|^2
            # above it, so a pure rtol check would be vacuous there.
            atol = 1e-9 * float(direct.max())
            np.testing.assert_allclose(expanded, direct, rtol=1e-9, atol=atol)
            assert np.all(expanded >= 0.0)

    def test_coincident_rows_clamped_nonnegative(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((5, 16)) * 1e3
        d = pairwise_squared_distances(points, points)
        assert np.all(d >= 0.0)
        assert np.all(np.diag(d) <= 1e-6)


class TestTopK:
    def test_sorted_ascending(self):
        values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        idx = top_k_smallest(values, 3)
        assert list(idx) == [1, 3, 2]

    def test_k_zero_empty(self):
        assert top_k_smallest(np.array([1.0]), 0).size == 0

    def test_k_exceeds_length(self):
        values = np.array([3.0, 1.0, 2.0])
        assert list(top_k_smallest(values, 10)) == [1, 2, 0]

    def test_ties_broken_by_index(self):
        values = np.array([1.0, 0.5, 0.5, 0.5, 2.0])
        idx = top_k_smallest(values, 2)
        assert list(idx) == [1, 2]

    @given(
        hnp.arrays(
            np.float64, st.integers(1, 60), elements=st.floats(-100, 100)
        ),
        st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_full_sort(self, values, k):
        idx = top_k_smallest(values, k)
        expected = sorted(range(len(values)), key=lambda i: (values[i], i))[:k]
        assert list(idx) == expected


class TestCellSquaredGaps:
    def test_gap_is_zero_inside_and_the_squared_distance_to_the_near_edge_outside(self):
        boundaries = np.array([[0.0, -1.0], [1.0, 0.0], [3.0, 4.0]])
        gaps = cell_squared_gaps(np.array([2.0, -3.0]), boundaries)
        assert gaps.dtype == np.float64 and gaps.shape == (2, 2)
        # dim 0: q = 2 is one past cell [0, 1] and inside cell [1, 3];
        # dim 1: q = -3 is two short of [-1, 0] and three short of [0, 4].
        assert gaps.tolist() == [[1.0, 4.0], [0.0, 9.0]]

    def test_a_query_on_a_shared_edge_touches_both_cells(self):
        boundaries = np.array([[0.0], [1.0], [2.0]])
        assert cell_squared_gaps(np.array([1.0]), boundaries).tolist() == [[0.0], [0.0]]

    def test_never_exceeds_the_squared_gap_to_a_point_of_the_cell(self):
        rng = np.random.default_rng(11)
        boundaries = np.sort(rng.standard_normal((9, 5)), axis=0)
        query = 2.0 * rng.standard_normal(5)
        gaps = cell_squared_gaps(query, boundaries)
        for weight in (0.0, 0.3, 1.0):
            inside = (1 - weight) * boundaries[:-1] + weight * boundaries[1:]
            assert np.all(gaps <= (inside - query) ** 2 + 1e-15)
