"""Ablation — the error-bounded AC-NN epsilon stop rule against
fixed-effort rules, on the BAG/MEDIUM index.

Expected: every epsilon rule keeps precision at or near 1.0 while reading
no more chunks than the exact run; fixed chunk budgets trade precision
directly.
"""

from repro.experiments.ablations import run_approx_rules_ablation


def bench_ablation_approx_rules(run_once, data):
    result = run_once(run_approx_rules_ablation, data)
    rows = {row[0]: row for row in result.rows}
    exact = rows["exact"]
    assert exact[3] == 1.0
    for name in ("epsilon=0.1", "epsilon=0.5"):
        assert rows[name][1] <= exact[1] + 1e-9   # never more chunks
        assert rows[name][3] >= 0.85              # bounded quality loss
