"""Tests for the approximate VA-file."""

import numpy as np
import pytest

from repro.core.ground_truth import exact_knn
from repro.extensions import vafile as vafile_module
from repro.extensions.vafile import VAFile


@pytest.fixture()
def vafile(tiny_collection, monkeypatch):
    monkeypatch.setattr(vafile_module, "BITS_PER_DIMENSION", 6)
    return VAFile(tiny_collection)


class TestConstruction:
    def test_validation(self):
        from repro.core.dataset import DescriptorCollection

        with pytest.raises(ValueError):
            VAFile(DescriptorCollection.empty(4))

    def test_signatures_in_range(self, vafile):
        assert vafile._signatures.min() >= 0
        assert vafile._signatures.max() < 2**6


class TestLowerBounds:
    def test_bounds_never_exceed_true_distance(self, vafile, tiny_collection):
        rng = np.random.default_rng(0)
        for _ in range(10):
            query = rng.standard_normal(4) * 5
            bounds = vafile._lower_bounds(query)
            true_d2 = np.sum(
                (tiny_collection.vectors.astype(float) - query) ** 2, axis=1
            )
            assert np.all(bounds <= true_d2 + 1e-9)

    def test_bounds_equal_the_per_dimension_loop_to_the_bit(self, small_synthetic):
        """``_lower_bounds`` was a Python loop over dimensions, one gather
        and one ``+=`` each; the shared gap routine and one axis-0 sum
        must produce the same floats (the related-work ablation's stdout
        is compared byte for byte)."""
        va = VAFile(small_synthetic)
        rng = np.random.default_rng(3)
        for query in rng.standard_normal((5, small_synthetic.dimensions)):
            lows, highs = va._boundaries[:-1], va._boundaries[1:]
            per_dim = (
                np.maximum(np.maximum(lows - query, 0.0), np.maximum(query - highs, 0.0))
                ** 2
            )
            reference = np.zeros(len(small_synthetic))
            for dim in range(small_synthetic.dimensions):
                reference += per_dim[va._signatures[dim], dim]
            assert va._lower_bounds(query).tobytes() == reference.tobytes()

    def test_own_cell_bound_zero(self, vafile, tiny_collection):
        query = tiny_collection.vectors[7].astype(float)
        bounds = vafile._lower_bounds(query)
        assert bounds[7] == pytest.approx(0.0, abs=1e-12)


class TestSearch:
    def test_exact_mode_matches_sequential_scan(self, vafile, tiny_collection):
        rng = np.random.default_rng(1)
        for _ in range(10):
            query = rng.standard_normal(4) * 4
            got = vafile.search(query, k=5, refine_candidates=0)
            expected = exact_knn(tiny_collection, query, 5).tolist()
            assert got == expected

    def test_bounded_refinement_trades_quality(self, vafile, tiny_collection):
        query = tiny_collection.vectors[10].astype(float)
        exact = set(exact_knn(tiny_collection, query, 5).tolist())
        tiny_budget = set(vafile.search(query, k=5, refine_candidates=5))
        big_budget = set(vafile.search(query, k=5, refine_candidates=40))
        assert len(big_budget & exact) >= len(tiny_budget & exact)
        assert len(big_budget & exact) >= 4  # nearly exact with 40 refinements

    def test_budget_larger_than_collection(self, vafile, tiny_collection):
        query = tiny_collection.vectors[0].astype(float)
        got = vafile.search(query, k=3, refine_candidates=10_000)
        assert got == exact_knn(tiny_collection, query, 3).tolist()

    def test_k_capped(self, vafile, tiny_collection):
        got = vafile.search(np.zeros(4), k=1000)
        assert len(got) == len(tiny_collection)

    def test_validation(self, vafile):
        with pytest.raises(ValueError):
            vafile.search(np.zeros(4), k=0)
        with pytest.raises(ValueError):
            vafile.search(np.zeros(3), k=1)

    def test_coarse_signatures_still_exact_in_exact_mode(
        self, tiny_collection, monkeypatch
    ):
        """Even 1-bit signatures give valid lower bounds, so exact mode
        stays exact (just refines more)."""
        monkeypatch.setattr(vafile_module, "BITS_PER_DIMENSION", 1)
        va = VAFile(tiny_collection)
        query = tiny_collection.vectors[3].astype(float)
        assert va.search(query, k=4) == exact_knn(tiny_collection, query, 4).tolist()
