"""Figure 4 — elapsed time to find N nearest neighbors (DQ workload).

Paper shape: the inversion — early neighbors take much *longer* with BAG
(its giant chunks cost ~1.8 s of CPU before any result surfaces; each SR
chunk costs ~10 ms), then BAG catches up near completion.
"""

from repro.experiments.config import K
from repro.experiments.quality_figures import run_fig4


def bench_fig4(run_once, data):
    result = run_once(run_fig4, data)
    k = K
    # Early: SR/LARGE is at least as fast as BAG/LARGE.
    assert result.series["SR/LARGE"][3] <= result.series["BAG/LARGE"][3] * 1.05
    # Late: BAG has caught up on the SMALL class.
    assert result.series["BAG/SMALL"][k] < result.series["SR/SMALL"][k]
