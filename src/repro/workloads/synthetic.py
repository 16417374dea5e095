"""Synthetic local-descriptor collection generator.

The paper's collection — 5M 24-d local descriptors from 52k real images —
is not redistributable, so experiments run on a generative stand-in that
preserves the properties the paper's results depend on:

* **Local-descriptor structure**: each image contributes a few hundred
  descriptors (section 4.1), drawn from a handful of recurring "visual
  patterns" (dense Gaussian blobs in descriptor space).  Recurring patterns
  across images are what make dataset queries find near-duplicates.
* **Heavy-tailed pattern popularity**: a few patterns recur in a large
  share of images.  These produce the enormous natural clusters BAG finds
  (Figure 1: largest chunks of 0.5-1M descriptors) while most patterns
  stay small.
* **Background clutter**: a fraction of descriptors is uniform noise —
  textureless or unique image regions.  These are the descriptors BAG ends
  up discarding as outliers (Table 1: 8-12 %).

The generator is fully seeded; identical configs produce identical
collections on every platform.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..core.dataset import DEFAULT_DIMENSIONS, DescriptorCollection

__all__ = ["SyntheticImageConfig", "generate_collection", "CLUTTER_FRACTION"]

#: Fraction of descriptors that are uniform background clutter
#: (textureless or unique regions far from every pattern).
CLUTTER_FRACTION = 0.04


@dataclasses.dataclass(frozen=True)
class SyntheticImageConfig:
    """Parameters of the synthetic image-descriptor model.

    Attributes
    ----------
    n_images:
        Number of images to simulate.
    mean_descriptors_per_image:
        Poisson mean of descriptors per image ("in general, there are few
        hundreds of descriptors computed on each image"); small scales use
        smaller means to keep collections tractable.
    n_patterns:
        Number of recurring visual patterns (mixture components).
    pattern_popularity_exponent:
        Zipf exponent of pattern popularity; higher = heavier head and
        bigger natural clusters.
    patterns_per_image:
        How many distinct patterns an image draws from.
    pattern_std:
        Within-pattern Gaussian spread, relative to the unit box.
    pattern_scale_range:
        Log10 range of the hierarchical offsets between a pattern center
        and its parent; wider/lower ranges give denser multi-scale
        structure (patterns that nearly overlap through patterns a unit
        apart).
    halo_fraction:
        Fraction of descriptors that are *halo* clutter: displaced from a
        random pattern center by a log-uniform offset.  Halo descriptors
        sit at a continuum of distances from dense regions, so
        agglomerative chunkers absorb them progressively rather than all
        at once — mirroring the long tail of noisy-but-not-random
        descriptors in real image collections.
    seed:
        Master seed.
    """

    n_images: int = 500
    mean_descriptors_per_image: int = 50
    n_patterns: int = 120
    pattern_popularity_exponent: float = 1.1
    patterns_per_image: int = 4
    pattern_std: float = 0.02
    pattern_scale_range: Tuple[float, float] = (-0.8, 0.0)
    halo_fraction: float = 0.08
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_images < 1 or self.mean_descriptors_per_image < 1:
            raise ValueError("need at least one image and one descriptor per image")
        if self.n_patterns < 1 or self.patterns_per_image < 1:
            raise ValueError("need at least one pattern")
        if not 0.0 <= self.halo_fraction < 1.0 - CLUTTER_FRACTION:
            raise ValueError(
                f"halo_fraction must be in [0, {1.0 - CLUTTER_FRACTION:g}) "
                "(clutter + halo fractions must stay below 1)"
            )
        if self.pattern_std <= 0:
            raise ValueError("pattern_std must be positive")
        if len(self.pattern_scale_range) != 2 or (
            self.pattern_scale_range[0] > self.pattern_scale_range[1]
        ):
            raise ValueError("pattern_scale_range must be an ascending (lo, hi)")


def _pattern_popularities(config: SyntheticImageConfig, rng) -> np.ndarray:
    """Zipf-like popularity over patterns, normalized to sum to one.

    The popularity ranking is permuted relative to pattern index so that
    popularity is independent of a pattern's position in the center
    hierarchy (otherwise the hierarchy root would always be the most
    popular pattern and a single runaway density mode would form).
    """
    ranks = np.arange(1, config.n_patterns + 1, dtype=np.float64)
    weights = ranks ** (-config.pattern_popularity_exponent)
    weights = weights / weights.sum()
    return rng.permutation(weights)


def _pattern_centers(config: SyntheticImageConfig, rng) -> np.ndarray:
    """Multi-scale pattern centers.

    Real local descriptors live on a structured manifold: inter-pattern
    distances span orders of magnitude rather than concentrating around the
    single typical distance of i.i.d. uniform points in 24-d.  Centers are
    therefore grown hierarchically — most patterns perturb an earlier
    pattern at a log-uniform scale — which gives agglomerative processes
    like BAG a continuum of merge scales instead of one cliff.
    """
    d = DEFAULT_DIMENSIONS
    centers = np.empty((config.n_patterns, d))
    centers[0] = rng.uniform(0.0, 1.0, size=d)
    for i in range(1, config.n_patterns):
        lo, hi = config.pattern_scale_range
        if rng.random() < 0.75:
            parent = centers[rng.integers(i)]
            scale = 10.0 ** rng.uniform(lo, hi)
            offset = rng.standard_normal(d)
            offset *= scale / np.linalg.norm(offset)
            centers[i] = np.clip(parent + offset, 0.0, 1.0)
        else:
            centers[i] = rng.uniform(0.0, 1.0, size=d)
    return centers


def generate_collection(config: SyntheticImageConfig) -> DescriptorCollection:
    """Generate a synthetic descriptor collection per ``config``."""
    rng = np.random.default_rng(config.seed)
    d = DEFAULT_DIMENSIONS

    pattern_centers = _pattern_centers(config, rng)
    # Per-pattern spread varies a little so cluster densities differ.
    pattern_stds = config.pattern_std * rng.uniform(
        0.6, 1.6, size=config.n_patterns
    )
    popularity = _pattern_popularities(config, rng)

    vectors_parts = []
    image_ids_parts = []
    for image in range(config.n_images):
        n_desc = max(1, int(rng.poisson(config.mean_descriptors_per_image)))
        k = min(config.patterns_per_image, config.n_patterns)
        image_patterns = rng.choice(
            config.n_patterns, size=k, replace=False, p=popularity
        )
        # Within the image, popular patterns also dominate descriptor counts.
        local_w = popularity[image_patterns]
        local_w = local_w / local_w.sum()
        chosen = rng.choice(image_patterns, size=n_desc, p=local_w)

        noise = rng.standard_normal((n_desc, d)) * pattern_stds[chosen][:, np.newaxis]
        points = pattern_centers[chosen] + noise

        kind = rng.random(n_desc)
        clutter = kind < CLUTTER_FRACTION
        halo = (~clutter) & (
            kind < CLUTTER_FRACTION + config.halo_fraction
        )
        n_clutter = int(clutter.sum())
        if n_clutter:
            points[clutter] = rng.uniform(0.0, 1.0, size=(n_clutter, d))
        n_halo = int(halo.sum())
        if n_halo:
            # Displace from the descriptor's pattern center by a log-uniform
            # offset in a random direction.
            offsets = 10.0 ** rng.uniform(-1.0, 0.0, size=n_halo)
            directions = rng.standard_normal((n_halo, d))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            points[halo] = pattern_centers[chosen[halo]] + (
                directions * offsets[:, np.newaxis]
            )

        vectors_parts.append(points)
        image_ids_parts.append(np.full(n_desc, image, dtype=np.int64))

    vectors = np.vstack(vectors_parts).astype(np.float32)
    image_ids = np.concatenate(image_ids_parts)
    ids = np.arange(vectors.shape[0], dtype=np.int64)
    return DescriptorCollection(vectors=vectors, ids=ids, image_ids=image_ids)
