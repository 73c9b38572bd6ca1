"""MemoryResultStore: LRU behaviour, the zero-size opt-out, counters."""

import pytest

from repro.errors import RoutingError
from repro.service.store.memory import MemoryResultStore


class _Stub:
    """Stands in for a RouteResult — the cache never inspects values."""

    def __init__(self, tag):
        self.tag = tag


class TestLRU:
    def test_round_trip(self):
        cache = MemoryResultStore(max_entries=4)
        value = _Stub("a")
        cache.put("k", value)
        assert cache.get("k") is value
        assert "k" in cache
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache = MemoryResultStore(max_entries=4)
        assert cache.get("absent") is None

    def test_eviction_drops_least_recently_used(self):
        cache = MemoryResultStore(max_entries=2)
        cache.put("a", _Stub("a"))
        cache.put("b", _Stub("b"))
        assert cache.get("a") is not None  # refresh "a"; "b" is now LRU
        cache.put("c", _Stub("c"))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_overwrite_same_key_keeps_one_entry(self):
        cache = MemoryResultStore(max_entries=2)
        cache.put("k", _Stub("old"))
        newer = _Stub("new")
        cache.put("k", newer)
        assert len(cache) == 1
        assert cache.get("k") is newer


class TestZeroSize:
    def test_zero_disables_storage(self):
        cache = MemoryResultStore(max_entries=0)
        cache.put("k", _Stub("a"))
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(RoutingError):
            MemoryResultStore(max_entries=-1)


class TestCounters:
    def test_stats_track_hits_and_misses(self):
        cache = MemoryResultStore(max_entries=4)
        cache.put("k", _Stub("a"))
        cache.get("k")
        cache.get("k")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["max_entries"] == 4

    def test_clear_keeps_counters(self):
        cache = MemoryResultStore(max_entries=4)
        cache.put("k", _Stub("a"))
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1
