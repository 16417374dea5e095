"""Experiment configuration: the scaled stand-in for the paper's setup.

The paper's experiments use a 5,017,298-descriptor collection, three
BAG/SR chunk-size classes (SMALL/MEDIUM/LARGE), 1,000-query DQ and SQ
workloads, and k = 30 throughout.  A pure-Python reproduction runs the same
pipeline at a reduced scale; :class:`ExperimentScale` pins every scaled
parameter so all benchmarks and EXPERIMENTS.md numbers come from one named,
seeded configuration.

Scaling rules (documented per Table/Figure in DESIGN.md):

* BAG thresholds are *fractions of the collection size*; the fractions are
  chosen so the resulting chunk-count ratios (SMALL : MEDIUM : LARGE
  ~ 1 : 0.5 : 0.35) and mean-chunk-size ratios (~1 : 2 : 3) bracket the
  paper's Table 1 ratios.
* SR-tree leaf capacities are derived at run time from the BAG results,
  exactly as the paper did ("chunks of uniform size roughly equal to the
  average size of the BAG clusters").
* k stays 30; query counts scale down from 1,000.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from ..simio.calibration import PAPER_2005_COST_MODEL
from ..simio.cpu_model import CpuModel
from ..simio.pipeline import CostModel
from ..workloads.synthetic import SyntheticImageConfig

__all__ = [
    "K",
    "ExperimentScale",
    "DEFAULT_SCALE",
    "TEST_SCALE",
    "SIZE_CLASSES",
    "PAPER_MEDIUM_CHUNK",
    "scaled_cost_model",
    "get_scale",
]

#: Neighbors searched and evaluated: the paper's k, at every scale.
K = 30

#: The paper's three chunk-size classes, smallest chunks first.
SIZE_CLASSES = ("SMALL", "MEDIUM", "LARGE")

#: Descriptors per MEDIUM chunk in the paper (Table 1) — the reference for
#: CPU-cost scaling below.
PAPER_MEDIUM_CHUNK = 1719


def scaled_cost_model(expected_medium_chunk: int) -> CostModel:
    """The calibrated 2005 cost model with CPU rescaled to a smaller data
    scale.

    A reproduction collection is ~200x smaller than the paper's, so chunks
    hold ~15-40x fewer descriptors while disk positioning costs do not
    shrink.  Charging the paper's 1.8 us per distance would therefore
    destroy the paper's per-chunk CPU : I/O balance (and with it every
    elapsed-time shape).  Scaling the per-distance cost by
    ``PAPER_MEDIUM_CHUNK / expected_medium_chunk`` keeps the CPU cost of a
    typical MEDIUM chunk at the paper's ~3.1 ms, preserving the
    dimensionless ratios the experiments measure: chunk CPU vs chunk I/O,
    giant-chunk stall vs per-chunk cost, and the CPU/IO crossover of the
    chunk-size sweep.  DESIGN.md records this substitution.
    """
    if expected_medium_chunk < 1:
        raise ValueError("expected chunk size must be positive")
    factor = PAPER_MEDIUM_CHUNK / float(expected_medium_chunk)
    base = PAPER_2005_COST_MODEL
    return dataclasses.replace(
        base,
        cpu=CpuModel(
            distance_time_s=base.cpu.distance_time_s * factor,
            chunk_overhead_s=base.cpu.chunk_overhead_s,
            ranking_time_per_chunk_s=base.cpu.ranking_time_per_chunk_s,
        ),
    )


@dataclasses.dataclass(frozen=True)
class ExperimentScale:
    """One complete, seeded experimental setup.

    Attributes
    ----------
    name:
        Registry key ("default", "test", ...).
    synthetic:
        Collection generator configuration.
    bag_threshold_fractions:
        BAG termination thresholds for (SMALL, MEDIUM, LARGE), as fractions
        of the collection size; descending chunk counts.
    n_queries:
        Queries per workload (the paper uses 1,000).
    n_queries_sweep:
        Queries per workload for the 16-index chunk-size sweep of
        figures 6-7 (a prefix of the main workloads).
    cost_model:
        Simulated-hardware cost model for all timing.
    chunk_size_ladder:
        The Figure 6/7 sweep: SR-tree leaf capacities (the paper builds 16
        chunk indexes spanning three decades of chunk size).
    """

    name: str
    synthetic: SyntheticImageConfig
    bag_threshold_fractions: Tuple[float, float, float] = (0.11, 0.085, 0.065)
    n_queries: int = 150
    n_queries_sweep: int = 60
    cost_model: CostModel = PAPER_2005_COST_MODEL
    chunk_size_ladder: Tuple[int, ...] = (
        16, 24, 36, 54, 81, 122, 182, 273, 410, 615, 922, 1383, 2074, 3112, 4668, 7002,
    )

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise ValueError("need at least one query")
        if not 1 <= self.n_queries_sweep <= self.n_queries:
            raise ValueError(
                "sweep query count must be in [1, n_queries] (the sweep uses "
                "a prefix of the main workloads)"
            )
        fr = self.bag_threshold_fractions
        if len(fr) != 3 or not all(0 < f < 1 for f in fr):
            raise ValueError("need three threshold fractions in (0, 1)")
        if not fr[0] > fr[1] > fr[2]:
            raise ValueError("threshold fractions must be strictly descending")
        if len(self.chunk_size_ladder) < 2 or any(
            s < 1 for s in self.chunk_size_ladder
        ):
            raise ValueError("chunk size ladder must hold positive sizes")

    def bag_thresholds(self, collection_size: int) -> Tuple[int, int, int]:
        """Absolute cluster-count thresholds for a given collection size,
        keyed SMALL/MEDIUM/LARGE (descending counts)."""
        thresholds = tuple(
            max(1, int(round(f * collection_size)))
            for f in self.bag_threshold_fractions
        )
        if not thresholds[0] > thresholds[1] > thresholds[2]:
            raise ValueError(
                f"collection of {collection_size} descriptors is too small for "
                f"distinct SMALL/MEDIUM/LARGE thresholds {thresholds}"
            )
        return thresholds


#: Full-size reproduction scale: ~24k descriptors, ~480 images.
DEFAULT_SCALE = ExperimentScale(
    name="default",
    synthetic=SyntheticImageConfig(
        n_images=480,
        mean_descriptors_per_image=50,
        n_patterns=500,
        patterns_per_image=6,
        pattern_popularity_exponent=0.9,
        pattern_std=0.05,
        pattern_scale_range=(-1.1, 0.0),
        halo_fraction=0.13,
        seed=42,
    ),
    bag_threshold_fractions=(0.097, 0.075, 0.053),
    n_queries=150,
    cost_model=scaled_cost_model(expected_medium_chunk=104),
)

#: Small scale for the test suite: ~3k descriptors, fast end to end.
TEST_SCALE = ExperimentScale(
    name="test",
    synthetic=SyntheticImageConfig(
        n_images=64,
        mean_descriptors_per_image=48,
        n_patterns=80,
        patterns_per_image=5,
        pattern_popularity_exponent=0.9,
        pattern_std=0.05,
        pattern_scale_range=(-1.1, 0.0),
        halo_fraction=0.10,
        seed=7,
    ),
    n_queries=25,
    n_queries_sweep=12,
    cost_model=scaled_cost_model(expected_medium_chunk=74),
    chunk_size_ladder=(16, 32, 64, 128, 256, 512),
)

_REGISTRY = {scale.name: scale for scale in (DEFAULT_SCALE, TEST_SCALE)}


def get_scale(name: str) -> ExperimentScale:
    """Look up a named scale ("default" or "test")."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
