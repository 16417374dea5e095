"""Figure 2 — chunks required to find N nearest neighbors (DQ workload).

Paper shape: BAG needs far fewer chunks than SR for the same N (5 chunks
=> 25-28 neighbors for BAG vs 16-20 for SR); chunk size has a small effect.
"""

from repro.experiments.config import K
from repro.experiments.quality_figures import run_fig2


def bench_fig2(run_once, data):
    result = run_once(run_fig2, data)
    k = K
    for size_class in ("SMALL", "MEDIUM", "LARGE"):
        assert result.series[f"BAG/{size_class}"][k] < result.series[f"SR/{size_class}"][k]
