"""Workload substrate: synthetic collections and query batches.

:mod:`~repro.workloads.synthetic` generates image-descriptor collections
with the density structure the paper's dataset exhibits (recurring visual
patterns with heavy-tailed popularity plus background clutter);
:mod:`~repro.workloads.queries` builds the paper's DQ (dataset-query) and
SQ (space-query) workloads over any collection.
"""

from .arrivals import ArrivalSchedule, poisson_arrival_times
from .queries import (
    TRIM_FRACTION,
    Workload,
    dataset_queries,
    space_queries,
)
from .synthetic import SyntheticImageConfig, generate_collection

__all__ = [
    "ArrivalSchedule",
    "poisson_arrival_times",
    "TRIM_FRACTION",
    "Workload",
    "dataset_queries",
    "space_queries",
    "SyntheticImageConfig",
    "generate_collection",
]
