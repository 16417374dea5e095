"""Ablation — BAG's clusters under a size cap, from BAG to uniform chunks.

Per size class and workload: BAG, the dial ``cap_chunk_sizes`` at
s = inf, 8, 4, 2, 1.5, 1, round-robin and SR.  Expected: the uncapped dial
is BAG itself; a tighter cap never yields fewer chunks; and every chunker
with locality needs fewer chunks to 25 NN than the round-robin strawman
(section 1.1: uniform "but the quality will suffer").
"""

from repro.experiments.ablations import run_size_cap_ablation


def bench_ablation_size_cap(run_once, data):
    result = run_once(run_size_cap_ablation, data)
    cells = {}
    for row in result.rows:
        cells.setdefault((row[0], row[1]), {})[row[2]] = row[3:]
    for rows in cells.values():
        assert rows["s=inf"] == rows["BAG"]
        counts = [row[0] for name, row in rows.items() if name.startswith("s=")]
        assert counts == sorted(counts)
        worst = max(rows, key=lambda name: rows[name][3])
        assert worst == "RR"
