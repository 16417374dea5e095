"""Ablation — every chunk-forming strategy on one playing field.

BAG and SR (the paper's contenders), TSVQ (the related work), the hybrid
proposal and the round-robin strawman, all over the MEDIUM retained
collection.  Expected: locality-aware strategies beat the strawman on
chunks-to-quality (section 1.1), and the hybrid — uniform size first,
dissimilarity second (section 7) — completes at worst close to SR.
"""

from repro.experiments.ablations import run_chunker_zoo


def bench_ablation_chunker_zoo(run_once, data):
    result = run_once(run_chunker_zoo, data)
    rows = {row[0]: row for row in result.rows}
    for locality_aware in ("BAG", "SR", "TSVQ", "HYB"):
        assert rows[locality_aware][3] < rows["RR"][3]
    assert rows["HYB"][5] <= rows["SR"][5] * 1.5  # the section-7 proposal
