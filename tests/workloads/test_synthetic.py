"""Tests for the synthetic descriptor generator."""

import numpy as np
import pytest

from repro.workloads import synthetic
from repro.workloads.synthetic import SyntheticImageConfig, generate_collection


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticImageConfig(n_images=0)
        with pytest.raises(ValueError):
            SyntheticImageConfig(halo_fraction=0.96)
        with pytest.raises(ValueError):
            SyntheticImageConfig(pattern_std=0.0)
        with pytest.raises(ValueError):
            SyntheticImageConfig(pattern_scale_range=(0.5, -0.5))
        with pytest.raises(ValueError):
            SyntheticImageConfig(n_patterns=0)


class TestGeneration:
    @pytest.fixture(scope="class")
    def collection(self):
        return generate_collection(
            SyntheticImageConfig(n_images=40, mean_descriptors_per_image=30, seed=3)
        )

    def test_shape_and_ids(self, collection):
        assert collection.dimensions == 24
        assert len(collection) > 0
        assert list(collection.ids) == list(range(len(collection)))

    def test_image_structure(self, collection):
        images, counts = np.unique(collection.image_ids, return_counts=True)
        assert len(images) == 40
        # Poisson(30): counts concentrate near the mean.
        assert 5 <= counts.mean() <= 60

    def test_determinism(self):
        config = SyntheticImageConfig(n_images=10, seed=99)
        a = generate_collection(config)
        b = generate_collection(config)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.image_ids, b.image_ids)

    def test_seed_changes_data(self):
        a = generate_collection(SyntheticImageConfig(n_images=10, seed=1))
        b = generate_collection(SyntheticImageConfig(n_images=10, seed=2))
        assert a.vectors.shape != b.vectors.shape or not np.array_equal(
            a.vectors, b.vectors
        )

    def test_clustered_structure(self, collection):
        """Pattern structure: most descriptors have a very close neighbor
        (same pattern), unlike uniform noise."""
        rng = np.random.default_rng(0)
        rows = rng.choice(len(collection), 80, replace=False)
        sample = collection.vectors[rows].astype(float)
        all_vectors = collection.vectors.astype(float)
        nn = []
        for v in sample:
            d = np.linalg.norm(all_vectors - v, axis=1)
            d[d == 0] = np.inf
            nn.append(d.min())
        uniform = rng.uniform(0, 1, size=(200, 24))
        d_uni = np.linalg.norm(uniform[0] - uniform[1:], axis=1).min()
        assert np.median(nn) < 0.5 * d_uni

    def test_heavy_tailed_patterns(self):
        """With a Zipf-ish popularity, some region of space is far denser
        than the median — the seed of BAG's giant chunks."""
        col = generate_collection(
            SyntheticImageConfig(
                n_images=60,
                mean_descriptors_per_image=40,
                n_patterns=50,
                pattern_popularity_exponent=1.2,
                seed=5,
            )
        )
        # Count points within a small radius of each of 100 sampled points.
        rng = np.random.default_rng(1)
        rows = rng.choice(len(col), 100, replace=False)
        vectors = col.vectors.astype(float)
        counts = []
        for r in rows:
            d = np.linalg.norm(vectors - vectors[r], axis=1)
            counts.append((d < 0.25).sum())
        counts = np.array(counts)
        # Density is highly non-uniform: the local-count distribution has a
        # large coefficient of variation and a sparse tail far below the max.
        assert counts.std() > 0.4 * counts.mean()
        assert counts.min() < 0.1 * counts.max()

    def test_dimensions_configurable(self, monkeypatch):
        monkeypatch.setattr(synthetic, "DEFAULT_DIMENSIONS", 8)
        col = generate_collection(SyntheticImageConfig(n_images=5, seed=0))
        assert col.dimensions == 8

    def test_values_mostly_in_unit_box(self, collection):
        frac_inside = np.mean(
            (collection.vectors > -0.5) & (collection.vectors < 1.5)
        )
        assert frac_inside > 0.99
