"""SR-tree substrate (Katayama & Satoh, SIGMOD 1997).

The paper forms uniform-size chunks by bulk-building an SR-tree with a
chosen leaf capacity and emitting one chunk per leaf, discarding the upper
levels (section 2).  That is all this package holds:
:mod:`~repro.srtree.bulk_load`, the static variance-split partition with
guaranteed uniform leaf size.  The leaf's bounding sphere and rectangle —
what is left of the SR-tree's region geometry once the upper levels are
gone — are computed by the chunker and stored in
:class:`~repro.core.chunk.ChunkMeta`, where the search engine prunes on
them.

The leaf-to-chunk extraction lives with the other chunk-forming strategies
in :mod:`repro.chunking.srtree_chunker`.
"""

from .bulk_load import ordered_partition

__all__ = ["ordered_partition"]
