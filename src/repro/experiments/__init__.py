"""Experiment drivers: one per paper table/figure, plus ablations.

Usage pattern (shared by the benchmarks, the CLI and EXPERIMENTS.md):

>>> from repro.experiments import prepare, get_scale, table1
>>> data = prepare(get_scale("test"))
>>> print(table1.run(data).render())        # doctest: +SKIP

``prepare`` is cached per scale, so running every experiment in one
process pays the data-build cost once; run-to-completion traces are also
cached and shared by figures 2-5 and Table 2.
"""

from . import (
    ablations,
    chunk_size_sweep,
    faultsim,
    fig1,
    quality_figures,
    servesim,
    shardsim,
    table1,
    table2,
)
from .checkpoint import SweepCheckpoint
from .chunk_size_sweep import run_fig6, run_fig7
from .config import DEFAULT_SCALE, SIZE_CLASSES, TEST_SCALE, ExperimentScale, get_scale
from .data import BuiltIndex, ExperimentData, prepare
from .quality_figures import run_fig2, run_fig3, run_fig4, run_fig5
from .results import FigureResult, GridResult, TableResult

__all__ = [
    "ablations",
    "chunk_size_sweep",
    "faultsim",
    "servesim",
    "shardsim",
    "SweepCheckpoint",
    "fig1",
    "quality_figures",
    "table1",
    "table2",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "DEFAULT_SCALE",
    "SIZE_CLASSES",
    "TEST_SCALE",
    "ExperimentScale",
    "get_scale",
    "BuiltIndex",
    "ExperimentData",
    "prepare",
    "FigureResult",
    "GridResult",
    "TableResult",
]
