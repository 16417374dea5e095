"""Extensions beyond the paper's core experiments.

* :mod:`~repro.extensions.vafile` — the approximate VA-file scan
  (EDBT'00) with bounded refinement;
* :mod:`~repro.extensions.multi_descriptor` — the paper's stated future
  work: image-level retrieval by voting over per-descriptor searches.
"""

from .multi_descriptor import ImageMatch, MultiDescriptorSearcher
from .vafile import VAFile

__all__ = [
    "ImageMatch",
    "MultiDescriptorSearcher",
    "VAFile",
]
