"""Tests for the standalone outlier filter."""

import numpy as np
import pytest

from repro.chunking.outliers import (
    apply_outlier_rows,
    norm_fraction_outliers,
)
from descriptors import from_vectors


@pytest.fixture()
def norm_ladder():
    """Five descriptors with norms 1..5."""
    vectors = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(np.float32)
    return from_vectors(vectors)


class TestNormFraction:
    def test_removes_target_fraction(self, norm_ladder):
        rows = norm_fraction_outliers(norm_ladder, fraction=0.4)
        assert list(rows) == [3, 4]

    def test_zero_fraction(self, norm_ladder):
        assert norm_fraction_outliers(norm_ladder, fraction=0.0).size == 0

    def test_rounding(self, norm_ladder):
        rows = norm_fraction_outliers(norm_ladder, fraction=0.5)  # 2.5 -> 2
        assert rows.size == 2

    def test_invalid_fraction(self, norm_ladder):
        with pytest.raises(ValueError):
            norm_fraction_outliers(norm_ladder, fraction=1.0)

    def test_equivalence_with_threshold(self, small_synthetic):
        """Removing the top fraction equals removing above the implied
        norm constant — the calibration property."""
        frac_rows = norm_fraction_outliers(small_synthetic, fraction=0.1)
        norms = small_synthetic.norms()
        implied_constant = norms[frac_rows].min()
        thr_rows = np.flatnonzero(norms > implied_constant - 1e-12)
        # Threshold form may include norm ties; fraction rows are a subset.
        assert set(frac_rows.tolist()) <= set(thr_rows.tolist())


class TestApply:
    def test_apply_removes_rows(self, norm_ladder):
        retained = apply_outlier_rows(norm_ladder, np.array([0, 4]))
        assert len(retained) == 3
        assert list(retained.ids) == [1, 2, 3]

    def test_apply_empty(self, norm_ladder):
        retained = apply_outlier_rows(norm_ladder, np.empty(0, dtype=np.intp))
        assert len(retained) == 5
