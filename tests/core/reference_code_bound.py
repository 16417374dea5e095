"""The code consult as it stood before its per-chunk set-up moved out,
kept verbatim as a differential oracle.

:func:`code_bound` is ``ChunkSearcher.code_bound`` when every consult
built its chunk's cell edges afresh and widened the code block to intp
before the gather; :func:`cell_edges` is the one-chunk
``storage.code_file.cell_edges`` it called, and :func:`code_table_starts`
the intp table offsets the searcher held.  Everything else it reads off
the searcher — the rectangle matrices and norms, ``_kernel_slack``, the
code file — is the shipped code, so the oracle differs from the searcher
in exactly the set-up that was hoisted and narrowed.
``test_code_consult.py`` compares the two bound by bound.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.distance import cell_squared_gaps
from repro.core.search import ChunkSearcher
from repro.storage.code_file import CELLS

#: ``c / CELLS`` for the ``CELLS + 1`` edges, every one exact in binary.
_STEPS = np.arange(CELLS + 1, dtype=np.float64)[:, np.newaxis] / CELLS


def cell_edges(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``(CELLS + 1, d)`` float64 cell boundaries of one chunk."""
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    edges: np.ndarray = _STEPS * (upper - lower)
    edges += lower
    np.minimum(edges, upper, out=edges)
    edges[CELLS] = upper
    return edges


def code_table_starts(dimensions: int) -> np.ndarray:
    """Where byte b's 256-entry table starts among the tables, as intp."""
    return (np.arange((dimensions + 1) // 2) * CELLS * CELLS)[:, np.newaxis]


def code_bound(self: ChunkSearcher, query: np.ndarray, chunk_id: int) -> float:
    """Lower bound on the kernel distance from ``query`` to any member of
    chunk ``chunk_id``, from its cell codes."""
    codes = self.index.codes
    assert codes is not None, "the index carries no code file"
    query = np.asarray(query, dtype=np.float64)
    block = codes.read_block(chunk_id)
    gaps = cell_squared_gaps(
        query, cell_edges(self._rect_lower[chunk_id], self._rect_upper[chunk_id])
    ).T
    if gaps.shape[0] % 2:  # the nibble an odd d pads: a gap of zero
        gaps = np.concatenate([gaps, np.zeros_like(gaps[:1])])
    tables = gaps[0::2, np.newaxis, :] + gaps[1::2, :, np.newaxis]
    # One gather for all the bytes: row b looks up table b.
    entries = block + code_table_starts(self.index.dimensions)
    nearest = float(tables.ravel().take(entries).sum(axis=0).min())
    nearest -= self._kernel_slack(
        float(np.dot(query, query)), float(self._rect_sq_norms[chunk_id])
    )
    return math.sqrt(max(0.0, nearest))
