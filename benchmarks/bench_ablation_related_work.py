"""Ablation — related-work shootout (paper section 6).

Chunk search and the approximate VA-file on one collection/workload,
reporting recall@10 vs descriptors scanned.  Expected: at a matched scan
budget the VA-file's per-descriptor bounds refine the right candidates,
so its recall is at least the chunk search's.
"""

from repro.experiments.ablations import run_related_work_shootout


def bench_ablation_related_work(run_once, data):
    result = run_once(run_related_work_shootout, data)
    rows = {row[0]: row for row in result.rows}
    for scheme, row in rows.items():
        assert 0.0 <= row[1] <= 1.0, scheme
    assert set(rows) == {"chunk-search(5)", "va-file"}
    # Same scan budget, finer bounds.
    assert rows["va-file"][1] >= rows["chunk-search(5)"][1]
