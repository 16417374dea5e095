"""Figures 2-5 — quality of intermediate results versus cost.

All four figures derive from the same run-to-completion traces:

* Figure 2: chunks read to find N in [0, 30] nearest neighbors, DQ.
* Figure 3: same, SQ.
* Figure 4: elapsed (simulated) seconds to find N neighbors, DQ.
* Figure 5: same, SQ.

Expected shapes (paper):

* Fig 2: BAG needs fewer chunks than SR for the same N (reading 5 chunks
  yields ~25-28 neighbors for BAG vs ~16-20 for SR); chunk size has only a
  small effect.
* Fig 3: the gap closes — SR is slightly better, because BAG must read
  several small chunks where SR reads a few uniform ones.
* Fig 4: the story inverts — the first neighbors take much longer with
  BAG, whose giant chunks cost seconds of CPU before any result surfaces,
  while each SR chunk costs ~10 ms; BAG catches up near completion.
* Fig 5: all six indexes perform very similarly (BAG's giant chunks are
  avoided for space queries).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.metrics import curves_from_traces
from .config import K, SIZE_CLASSES
from .data import FAMILIES, ExperimentData
from .results import FigureResult

__all__ = ["run_fig2", "run_fig3", "run_fig4", "run_fig5", "quality_curves"]


def quality_curves(data: ExperimentData, workload_name: str):
    """Averaged quality-vs-cost curves for all six indexes on one workload.

    Returns ``{label: QualityCurves}`` (label e.g. ``"BAG/SMALL"``).
    """
    curves = {}
    for family in FAMILIES:
        for size_class in SIZE_CLASSES:
            traces = data.completion_traces(family, size_class, workload_name)
            curves[f"{family}/{size_class}"] = curves_from_traces(
                traces, K
            )
    return curves


def _figure(
    data: ExperimentData,
    workload_name: str,
    metric: str,
    experiment_id: str,
    title: str,
) -> FigureResult:
    curves = quality_curves(data, workload_name)
    x_values = list(range(K + 1))
    series: Dict[str, List[float]] = {}
    for label, quality in curves.items():
        values = quality.chunks_read if metric == "chunks" else quality.elapsed_s
        series[label] = [float(v) for v in values]
    return FigureResult(
        experiment_id=experiment_id,
        title=title,
        x_label="neighbors found",
        x_values=x_values,
        series=series,
        precision=2 if metric == "chunks" else 4,
    )


def run_fig2(data: ExperimentData) -> FigureResult:
    return _figure(
        data, "DQ", "chunks", "fig2",
        "Chunks required to find nearest neighbors (DQ workload)",
    )


def run_fig3(data: ExperimentData) -> FigureResult:
    return _figure(
        data, "SQ", "chunks", "fig3",
        "Chunks required to find nearest neighbors (SQ workload)",
    )


def run_fig4(data: ExperimentData) -> FigureResult:
    return _figure(
        data, "DQ", "elapsed", "fig4",
        "Elapsed time (s) required to find nearest neighbors (DQ workload)",
    )


def run_fig5(data: ExperimentData) -> FigureResult:
    return _figure(
        data, "SQ", "elapsed", "fig5",
        "Elapsed time (s) required to find nearest neighbors (SQ workload)",
    )
