"""Simulated disk.

The paper ran on a 40 GB ATA disk (circa 2004).  The experiments' elapsed
times are a function of three disk behaviours the model captures:

* a positioning cost (seek + rotational latency) paid once per random
  chunk access,
* a sequential transfer rate paid per page moved, and
* a cheaper sequential pattern for the index file, which is read front to
  back at query start (the paper measures this at ~50 ms).

The model is deterministic: identical access sequences cost identical
simulated time, which is what makes the elapsed-time figures (4-7)
reproducible to the digit.
"""

from __future__ import annotations

import dataclasses

from ..storage.pages import DEFAULT_PAGE_BYTES

__all__ = ["DiskModel"]


@dataclasses.dataclass(frozen=True)
class DiskModel:
    """Cost model of a single rotating disk.

    Parameters
    ----------
    seek_time_s:
        Average head positioning time for a random access.
    rotational_latency_s:
        Average rotational delay (half a revolution).
    transfer_rate_bytes_per_s:
        Sustained sequential transfer rate.
    page_bytes:
        Disk page size; chunk reads are charged per page.
    """

    seek_time_s: float = 8.5e-3
    rotational_latency_s: float = 4.2e-3
    transfer_rate_bytes_per_s: float = 40e6
    page_bytes: int = DEFAULT_PAGE_BYTES

    def __post_init__(self) -> None:
        # ``not x >= 0``, not ``x < 0``: a NaN fails the test too.
        if not (self.seek_time_s >= 0 and self.rotational_latency_s >= 0):
            raise ValueError("latencies cannot be negative or NaN")
        if not self.transfer_rate_bytes_per_s > 0:
            raise ValueError("transfer rate must be positive")
        if not self.page_bytes > 0:
            raise ValueError("page size must be positive")

    @property
    def positioning_time_s(self) -> float:
        """Seek plus rotational latency — paid once per random access."""
        return self.seek_time_s + self.rotational_latency_s

    def transfer_time_s(self, n_bytes: int) -> float:
        """Pure sequential transfer time for ``n_bytes``."""
        if n_bytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        return n_bytes / self.transfer_rate_bytes_per_s

    def random_read_time_s(self, page_count: int) -> float:
        """One random access of ``page_count`` contiguous pages.

        This is the per-chunk I/O cost: position once, then stream the
        chunk's pages.
        """
        if page_count <= 0:
            raise ValueError("a read covers at least one page")
        return self.positioning_time_s + self.transfer_time_s(
            page_count * self.page_bytes
        )

    def sequential_read_time_s(self, n_bytes: int) -> float:
        """A front-to-back file read: one positioning, then streaming.

        Used for the chunk-index read at query start and for the
        sequential-scan ground truth baseline.
        """
        if n_bytes < 0:
            raise ValueError("cannot read a negative byte count")
        return self.positioning_time_s + self.transfer_time_s(n_bytes)

    def sequential_write_time_s(self, n_bytes: int) -> float:
        """A sequential write (append or file rewrite): position, stream.

        The 2004-era disk writes at its sustained transfer rate once the
        head is positioned, so the model mirrors
        :meth:`sequential_read_time_s`.  Streaming-ingest mutations (WAL
        appends, checkpoint packs, base rebuilds, manifests) are charged
        through this path.
        """
        if n_bytes < 0:
            raise ValueError("cannot write a negative byte count")
        return self.positioning_time_s + self.transfer_time_s(n_bytes)

    @property
    def sync_time_s(self) -> float:
        """Cost of one durability barrier (``fsync``).

        Modeled as a seek plus a full platter revolution (twice the
        average rotational latency): the head must reach the track and
        the sector must pass under it before the barrier completes.
        Charged once per WAL group commit and once per published file.
        """
        return self.seek_time_s + 2.0 * self.rotational_latency_s
