"""Ablation — I/O-CPU overlap on vs off (DESIGN.md section 9).

The paper's uniform-chunks argument rests on overlapping I/O with CPU;
this re-times the MEDIUM indexes with a strictly serial execution model.
Expected: serial is never faster; the penalty is largest where chunk CPU
and I/O are balanced (SR), shrinking where one side dominates.
"""

from repro.experiments.ablations import run_overlap_ablation


def bench_ablation_overlap(run_once, data):
    result = run_once(run_overlap_ablation, data)
    for row in result.rows:
        assert row[2] >= row[1] * 0.999  # serial >= overlapped (t 25nn)
        assert row[4] >= row[3] * 0.999  # and for completion
