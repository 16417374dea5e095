"""Simulated cross-query chunk cache.

The one simulated cache: a retrieval service keeps recently read chunks —
whole ``(ids, vectors)`` payloads, not pages — in a bounded pool shared by
every worker of its :class:`~repro.simio.queueing.WorkerPool`, so a chunk
that is hot across the query stream is fetched from disk once and served
from memory afterwards.  (An operating system's buffer cache is the same
model with an unbounded pool and a free hit: chunk extents never overlap,
so page granularity adds nothing —
:func:`~repro.experiments.ablations.run_cache_ablation`.)

Cost semantics (:func:`chunk_read_time_s`):

* a **cold** read is charged the full random-read price of the chunk's
  page extent, exactly as an uncached read would be;
* a **warm** hit is charged a memory-copy of the same bytes at
  ``memcpy_bytes_per_s`` — orders of magnitude cheaper, never free at a
  finite rate, so cached timings remain strictly ordered and comparable.

The hit/miss sequence is a pure function of the touch order (bounded LRU,
deterministic eviction), which preserves the PR-1–4 determinism contract:
two runs with the same seed and the same query order produce byte-identical
reports.  ``seed`` does not randomize anything — it is recorded so a report
can pin the workload that warmed the cache.

The cache is a pure model of simulated residency: it tracks which chunks
would be in memory and what a read therefore costs, and holds no chunk
contents.  Like every simulated-layer module, this file must never read
the wall clock.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from .disk_model import DiskModel

__all__ = ["LruChunkCache", "chunk_read_time_s", "DEFAULT_MEMCPY_BYTES_PER_S"]

#: Default warm-hit bandwidth: ~1 GB/s, a conservative memory-copy rate for
#: the paper's 2005-era hardware (DDR-333 streams faster, but the copy
#: shares the bus with the scan itself).
DEFAULT_MEMCPY_BYTES_PER_S = 1.0e9


class LruChunkCache:
    """Bounded LRU cache of whole chunks, keyed by chunk-file page offset.

    Parameters
    ----------
    capacity_bytes:
        Total simulated bytes the cache may hold; entries are evicted in
        LRU order once an insertion exceeds it.  A chunk larger than the
        whole capacity is charged as a miss but never retained.
    memcpy_bytes_per_s:
        Bandwidth at which a warm hit is charged (simulated memory copy).
    seed:
        Seed of the workload that warmed the cache, recorded in
        :meth:`stats` for report provenance; the cache itself is
        deterministic regardless.

    The page offset is the key because it uniquely locates a chunk within
    one chunk file (extents never overlap), and it is the datum the
    pipeline simulator already receives per read.
    """

    def __init__(
        self,
        capacity_bytes: int,
        memcpy_bytes_per_s: float = DEFAULT_MEMCPY_BYTES_PER_S,
        seed: int = 0,
    ):
        if capacity_bytes < 1:
            raise ValueError("chunk cache needs a positive byte capacity")
        if not memcpy_bytes_per_s > 0.0:
            raise ValueError("memory-copy bandwidth must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.memcpy_bytes_per_s = float(memcpy_bytes_per_s)
        self.seed = int(seed)
        #: Resident chunk key -> its size in bytes, least recently used first.
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return int(key) in self._entries

    def touch(self, key: int, nbytes: int) -> bool:
        """Access one chunk; returns True on a hit.

        A miss inserts the chunk (size ``nbytes``) and evicts least
        recently used entries until the capacity holds again.
        """
        if nbytes < 0:
            raise ValueError("chunk size cannot be negative")
        key = int(key)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        nbytes = int(nbytes)
        self._entries[key] = nbytes
        self.used_bytes += nbytes
        while self.used_bytes > self.capacity_bytes and self._entries:
            victim_key, victim_bytes = self._entries.popitem(last=False)
            self.used_bytes -= victim_bytes
            self.evictions += 1
            if victim_key == key:
                # The new chunk itself exceeded the capacity: charged as a
                # miss, not retained.
                break
        return False

    def clear(self) -> None:
        self._entries.clear()
        self.used_bytes = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> "dict[str, object]":
        """JSON-ready counters (deterministic under a fixed touch order)."""
        return {
            "capacity_bytes": self.capacity_bytes,
            "used_bytes": self.used_bytes,
            "resident_chunks": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "memcpy_bytes_per_s": self.memcpy_bytes_per_s,
            "seed": self.seed,
        }


def chunk_read_time_s(
    disk: DiskModel,
    cache: LruChunkCache,
    page_offset: int,
    page_count: int,
) -> Tuple[float, bool]:
    """Time to read one chunk through the chunk cache.

    A warm hit copies the chunk's bytes from memory; a cold miss pays the
    disk model's full random-read price (positioning + transfer) and
    inserts the chunk.  Returns ``(seconds, hit)``.
    """
    if page_count < 1:
        raise ValueError("a read covers at least one page")
    nbytes = page_count * disk.page_bytes
    if cache.touch(page_offset, nbytes):
        return nbytes / cache.memcpy_bytes_per_s, True
    return disk.random_read_time_s(page_count), False
