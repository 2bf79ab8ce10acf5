"""Unit tests for the service's LRU byte-budgeted result cache."""

import pytest

from repro.service.cache import ResultCache, fingerprint, result_key


class TestResultKey:
    def test_distinct_kinds_and_params_get_distinct_keys(self):
        base = result_key("presence", "", "t1", "c1")
        assert result_key("busy", "", "t1", "c1") != base
        assert result_key("presence", "q=99", "t1", "c1") != base

    def test_trace_fingerprint_rotates_key(self):
        """An ingest that changes the manifest retires old keys."""
        assert result_key("presence", "", "t1", "c1") != result_key(
            "presence", "", "t2", "c1"
        )

    def test_config_fingerprint_rotates_key(self):
        """A config change (days, scenario, thresholds) retires old keys."""
        assert result_key("presence", "", "t1", "c1") != result_key(
            "presence", "", "t1", "c2"
        )

    def test_fingerprint_is_stable_and_short(self):
        assert fingerprint("abc") == fingerprint("abc")
        assert fingerprint("abc") != fingerprint("abd")
        assert len(fingerprint("abc")) == 16


class TestResultCache:
    def test_get_put_roundtrip(self):
        cache = ResultCache(max_bytes=1024)
        assert cache.get("k") is None
        cache.put("k", b"value")
        assert cache.get("k") == b"value"

    def test_hit_miss_counters(self):
        cache = ResultCache(max_bytes=1024)
        cache.get("k")
        cache.put("k", b"v")
        cache.get("k")
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.entries == 1
        assert stats.current_bytes == 1

    def test_peek_does_not_touch_counters(self):
        cache = ResultCache(max_bytes=1024)
        cache.put("k", b"v")
        assert cache.peek("k") == b"v"
        assert cache.peek("missing") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_lru_eviction_order(self):
        cache = ResultCache(max_bytes=30)
        cache.put("a", b"x" * 10)
        cache.put("b", b"y" * 10)
        cache.put("c", b"z" * 10)
        cache.get("a")  # refresh 'a'; 'b' is now least recent
        cache.put("d", b"w" * 10)
        assert cache.peek("b") is None
        assert cache.peek("a") is not None
        assert cache.peek("c") is not None
        assert cache.peek("d") is not None
        assert cache.stats().evictions == 1

    def test_budget_is_bytes_not_entries(self):
        cache = ResultCache(max_bytes=100)
        cache.put("big", b"x" * 90)
        cache.put("small", b"y" * 20)
        assert cache.peek("big") is None
        assert cache.peek("small") is not None
        assert cache.stats().current_bytes == 20

    def test_oversized_value_never_stored(self):
        cache = ResultCache(max_bytes=10)
        cache.put("keep", b"k" * 5)
        cache.put("huge", b"x" * 11)
        assert cache.peek("huge") is None
        assert cache.peek("keep") == b"k" * 5
        assert cache.stats().evictions == 0

    def test_replacing_a_key_adjusts_bytes(self):
        cache = ResultCache(max_bytes=100)
        cache.put("k", b"x" * 60)
        cache.put("k", b"y" * 10)
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.current_bytes == 10
        assert cache.get("k") == b"y" * 10

    def test_invalidate_and_clear(self):
        # ``POST /invalidate`` clears the whole cache.
        cache = ResultCache(max_bytes=1024)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert cache.clear() == 2
        assert cache.peek("a") is None
        assert cache.stats().entries == 0
        assert cache.stats().current_bytes == 0

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(max_bytes=-1)

    def test_zero_budget_caches_nothing(self):
        cache = ResultCache(max_bytes=0)
        cache.put("k", b"v")
        assert cache.get("k") is None
