"""Simulated I/O and CPU substrate.

The paper's elapsed-time results were measured on 2004 hardware (2.8 GHz
Pentium 4, 40 GB ATA disk).  A Python reproduction cannot faithfully
re-measure that machine's I/O-CPU overlap, so this package replaces the
hardware with a deterministic, calibrated cost model:

* :class:`~repro.simio.disk_model.DiskModel` — positioning + per-page
  transfer costs;
* :class:`~repro.simio.cpu_model.CpuModel` — per-distance and per-chunk CPU
  costs;
* :class:`~repro.simio.pipeline.CostModel` — both models plus the
  double-buffered I/O-CPU overlap policy of a ranked chunk scan;
* :mod:`~repro.simio.calibration` — parameters pinned to the paper's
  reported timings (Table 2 reproduces to within ~2 %).
"""

from .calibration import PAPER_2005_COST_MODEL, verify_calibration
from .chunk_cache import LruChunkCache, chunk_read_time_s
from .cpu_model import CpuModel
from .disk_model import DiskModel
from .pipeline import CostModel
from .queueing import WorkerPool

__all__ = [
    "WorkerPool",
    "LruChunkCache",
    "chunk_read_time_s",
    "PAPER_2005_COST_MODEL",
    "verify_calibration",
    "CpuModel",
    "DiskModel",
    "CostModel",
]
