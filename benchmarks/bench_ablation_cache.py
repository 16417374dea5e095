"""Ablation — buffer-cache effects and the paper's round-robin protocol.

The paper ran each query "once to each chunk-index in a round-robin
fashion (to eliminate buffering effects)".  This quantifies the effect:
warm repeated queries look dramatically faster through a buffer cache;
clearing the cache between queries (the round-robin's effect) restores
cold-measurement numbers.
"""

from repro.experiments.ablations import run_cache_ablation


def bench_ablation_cache(run_once, data):
    result = run_once(run_cache_ablation, data)
    rows = {row[0]: row for row in result.rows}
    cold = rows["cold (no cache)"][1]
    warm = rows["warm repeat"][1]
    rr = rows["round-robin (cleared)"][1]
    assert warm < cold  # buffering bias is real
    assert abs(rr - cold) <= 0.02 * cold  # the protocol eliminates it
