"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.dataset import DescriptorCollection
from repro.experiments.config import TEST_SCALE
from repro.experiments.data import prepare
from repro.workloads.synthetic import SyntheticImageConfig, generate_collection
from descriptors import from_vectors

# Tier-1 draws the same examples every run and replays no stored ones, so a
# failure is a regression and not luck.  ``--hypothesis-profile=explore``
# goes looking instead: random draws, 25x the examples in the property files
# that scale their budget by the profile's, and a blob that reproduces a
# failure.  This file is imported before the flag is applied.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "explore", max_examples=25 * settings.default.max_examples, print_blob=True
)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def tiny_collection() -> DescriptorCollection:
    """A deterministic 3-cluster, 60-descriptor collection in 4-d."""
    rng = np.random.default_rng(5)
    centers = np.array(
        [[0.0, 0.0, 0.0, 0.0], [5.0, 5.0, 5.0, 5.0], [10.0, 0.0, 10.0, 0.0]]
    )
    parts = [
        centers[c] + 0.2 * rng.standard_normal((20, 4)) for c in range(3)
    ]
    vectors = np.vstack(parts).astype(np.float32)
    return from_vectors(vectors)


@pytest.fixture()
def image_collection() -> DescriptorCollection:
    """Eight images of 25 descriptors each around their own 6-d center."""
    rng = np.random.default_rng(12)
    centers = rng.uniform(0, 10, size=(8, 6))
    parts, image_ids = [], []
    for image, center in enumerate(centers):
        parts.append(center + 0.2 * rng.standard_normal((25, 6)))
        image_ids.extend([image] * 25)
    return DescriptorCollection(
        vectors=np.vstack(parts).astype(np.float32),
        ids=np.arange(200),
        image_ids=np.asarray(image_ids),
    )


@pytest.fixture()
def clutter_collection() -> DescriptorCollection:
    """Eight tight 6-d patterns plus 10% uniform clutter, 240 descriptors.

    A chunk that holds one clutter point has a bounding sphere reaching
    across the space — its lower bound is 0 for most queries — while its
    bounding rectangle stays a box between the pattern and that point.
    """
    rng = np.random.default_rng(19)
    centers = rng.uniform(-4.0, 4.0, size=(8, 6))
    patterns = [c + 0.05 * rng.standard_normal((27, 6)) for c in centers]
    clutter = rng.uniform(-4.0, 4.0, size=(24, 6))
    vectors = np.vstack(patterns + [clutter]).astype(np.float32)
    return from_vectors(vectors[rng.permutation(len(vectors))])


@pytest.fixture(scope="session")
def small_synthetic() -> DescriptorCollection:
    """A ~1.5k-descriptor 24-d synthetic collection (session cached)."""
    config = SyntheticImageConfig(
        n_images=32,
        mean_descriptors_per_image=48,
        n_patterns=40,
        patterns_per_image=4,
        seed=11,
    )
    return generate_collection(config)


@pytest.fixture(scope="session")
def experiment_data():
    """Fully prepared TEST_SCALE experiment data (built once per session)."""
    return prepare(TEST_SCALE)
