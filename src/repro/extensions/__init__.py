"""Extensions beyond the paper's core experiments.

* :mod:`~repro.extensions.multi_descriptor` — the paper's stated future
  work: image-level retrieval by voting over per-descriptor searches.
"""

from .multi_descriptor import ImageMatch, MultiDescriptorSearcher

__all__ = [
    "ImageMatch",
    "MultiDescriptorSearcher",
]
