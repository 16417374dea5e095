"""Tests for the simulated cross-query chunk cache."""

import dataclasses

import pytest

from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.simio.chunk_cache import (
    DEFAULT_MEMCPY_BYTES_PER_S,
    LruChunkCache,
    chunk_read_time_s,
)
from repro.simio.disk_model import DiskModel
from repro.simio.pipeline import CostModel

DISK = DiskModel()
PAGE = DISK.page_bytes


class TestLruSemantics:
    def test_miss_then_hit(self):
        cache = LruChunkCache(capacity_bytes=10 * PAGE)
        assert cache.touch(0, PAGE) is False
        assert cache.touch(0, PAGE) is True
        assert (cache.hits, cache.misses) == (1, 1)
        assert 0 in cache
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = LruChunkCache(capacity_bytes=2 * PAGE)
        cache.touch(0, PAGE)
        cache.touch(8, PAGE)
        cache.touch(0, PAGE)  # refresh 0: now 8 is the LRU victim
        cache.touch(16, PAGE)  # evicts 8
        assert 0 in cache and 16 in cache and 8 not in cache
        assert cache.evictions == 1
        assert cache.used_bytes == 2 * PAGE

    def test_oversized_chunk_not_retained(self):
        cache = LruChunkCache(capacity_bytes=PAGE)
        cache.touch(0, PAGE)
        assert cache.touch(8, 3 * PAGE) is False
        # The oversized chunk is charged as a miss but never resident;
        # prior residents it displaced stay gone.
        assert 8 not in cache
        assert cache.used_bytes <= cache.capacity_bytes

    def test_hit_rate_and_stats(self):
        cache = LruChunkCache(capacity_bytes=10 * PAGE, seed=7)
        assert cache.hit_rate == 0.0
        cache.touch(0, PAGE)
        cache.touch(0, PAGE)
        cache.touch(8, PAGE)
        assert cache.hit_rate == pytest.approx(1.0 / 3.0)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["resident_chunks"] == 2
        assert stats["seed"] == 7

    def test_clear(self):
        cache = LruChunkCache(capacity_bytes=10 * PAGE)
        cache.touch(0, PAGE)
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0
        # Counters survive a clear: they describe the workload, not the
        # resident set.
        assert cache.misses == 1

    def test_determinism(self):
        touches = [(0, PAGE), (8, 2 * PAGE), (0, PAGE), (24, PAGE), (8, 2 * PAGE)]
        runs = []
        for _ in range(2):
            cache = LruChunkCache(capacity_bytes=3 * PAGE)
            outcomes = [cache.touch(k, n) for k, n in touches]
            runs.append((outcomes, cache.hits, cache.misses, cache.evictions))
        assert runs[0] == runs[1]


class TestValidation:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            LruChunkCache(capacity_bytes=0)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            LruChunkCache(capacity_bytes=PAGE, memcpy_bytes_per_s=0.0)

    def test_rejects_nan_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            LruChunkCache(capacity_bytes=PAGE, memcpy_bytes_per_s=float("nan"))

    def test_rejects_negative_chunk_size(self):
        cache = LruChunkCache(capacity_bytes=PAGE)
        with pytest.raises(ValueError, match="negative"):
            cache.touch(0, -1)

    def test_refused_touch_changes_no_state(self):
        # The searcher calls touch directly: a refused call must leave the
        # stats (and the residency) as they were, for a new key and a
        # resident one alike.
        cache = LruChunkCache(capacity_bytes=2 * PAGE)
        for key in (0, 1, 0, 2, 3):
            cache.touch(key, PAGE)

        def state():
            return (cache.hits, cache.misses, cache.evictions,
                    cache.used_bytes, len(cache), list(cache._entries))

        before = state()
        assert before[:3] == (1, 4, 2)
        for key in (9, 3):
            with pytest.raises(ValueError, match="negative"):
                cache.touch(key, -1)
            assert state() == before

    def test_cost_model_rejects_both_caches(self):
        """There is one simulated cache: a second one has no field to go in."""
        with pytest.raises(TypeError, match="cache"):
            dataclasses.replace(
                PAPER_2005_COST_MODEL,
                cache=LruChunkCache(capacity_bytes=PAGE),
                chunk_cache=LruChunkCache(capacity_bytes=PAGE),
            )

    def test_cost_model_accepts_chunk_cache_alone(self):
        model = dataclasses.replace(
            PAPER_2005_COST_MODEL,
            chunk_cache=LruChunkCache(capacity_bytes=PAGE),
        )
        assert isinstance(model, CostModel)


class TestReadCharges:
    def test_cold_read_pays_disk_price(self):
        cache = LruChunkCache(capacity_bytes=100 * PAGE)
        seconds, hit = chunk_read_time_s(DISK, cache, 0, 3)
        assert not hit
        assert seconds == DISK.random_read_time_s(3)

    def test_warm_read_pays_memcpy_price(self):
        cache = LruChunkCache(capacity_bytes=100 * PAGE)
        chunk_read_time_s(DISK, cache, 0, 3)
        seconds, hit = chunk_read_time_s(DISK, cache, 0, 3)
        assert hit
        assert seconds == 3 * PAGE / DEFAULT_MEMCPY_BYTES_PER_S
        # Warm is cheap but never free: timings must stay ordered.
        assert 0.0 < seconds < DISK.random_read_time_s(3)

    def test_rejects_empty_read(self):
        cache = LruChunkCache(capacity_bytes=PAGE)
        with pytest.raises(ValueError, match="at least one page"):
            chunk_read_time_s(DISK, cache, 0, 0)
