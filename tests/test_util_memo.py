"""Memoized key hashing: identical results, counted cache hits.

The satellite requirement is a cache-hit-counter test *proving no
behavior change*: every memoized function must return values equal to
a fresh (cold-cache) computation, while the counters prove the cache
actually served hits on the repeat calls.
"""

import pytest

from repro.util.hashing import (
    HASH_CACHE,
    PREFIX_INTERVAL_CACHE,
    clear_hash_caches,
    order_preserving_hash,
    prefix_interval,
)
from repro.util.keys import _COVER_CACHE, Key, MemoCache, covering_prefixes


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_hash_caches()
    _COVER_CACHE.clear()
    yield
    clear_hash_caches()
    _COVER_CACHE.clear()


class TestMemoCache:
    def test_hit_miss_counters(self):
        cache = MemoCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats() == {"hits": 1, "misses": 1,
                                 "evictions": 0, "size": 1}

    def test_fifo_eviction_is_deterministic(self):
        cache = MemoCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a", the oldest insertion
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_clear_resets_counters(self):
        cache = MemoCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0,
                                 "evictions": 0, "size": 0}

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            MemoCache(maxsize=0)


class TestOrderPreservingHashMemo:
    VALUES = ["EMBL#Organism", "EMP#SystematicName", "Aspergillus 9",
              "SwissProt:P10001", "", " ", "~~~", "a" * 64]

    def test_hits_counted_and_results_identical(self):
        cold = [order_preserving_hash(v) for v in self.VALUES]
        before = HASH_CACHE.stats()
        assert before["hits"] == 0
        assert before["misses"] == len(self.VALUES)
        warm = [order_preserving_hash(v) for v in self.VALUES]
        after = HASH_CACHE.stats()
        assert after["hits"] == len(self.VALUES)
        assert warm == cold
        # The cached instance itself is returned (Key is immutable).
        assert all(a is b for a, b in zip(cold, warm))

    def test_distinct_bits_are_distinct_entries(self):
        a = order_preserving_hash("Asp", bits=16)
        b = order_preserving_hash("Asp", bits=32)
        assert len(a) == 16 and len(b) == 32
        assert HASH_CACHE.stats()["misses"] == 2

    def test_results_match_uncached_computation(self):
        # Hash through a throwaway run, clear, re-hash: equality across
        # a cold boundary means the cache stores exact results.
        first = {v: order_preserving_hash(v).bits for v in self.VALUES}
        clear_hash_caches()
        second = {v: order_preserving_hash(v).bits for v in self.VALUES}
        assert first == second

    def test_monotonicity_survives_memoization(self):
        values = sorted(self.VALUES)
        keys = [order_preserving_hash(v) for v in values]  # cold
        keys2 = [order_preserving_hash(v) for v in values]  # warm
        for seq in (keys, keys2):
            assert all(x <= y for x, y in zip(seq, seq[1:]))


class TestPrefixIntervalMemo:
    def test_hits_counted_and_results_identical(self):
        cold = prefix_interval("Asp")
        warm = prefix_interval("Asp")
        assert cold == warm
        stats = PREFIX_INTERVAL_CACHE.stats()
        assert stats == {"hits": 1, "misses": 1, "evictions": 0, "size": 1}


class TestCoveringPrefixesMemo:
    def test_hits_counted_and_results_identical(self):
        low, high = Key("010"), Key("101")
        cold = covering_prefixes(low, high)
        hit = covering_prefixes(low, high)
        assert cold == hit
        assert _COVER_CACHE.hits == 1

    def test_returned_copy_is_mutation_safe(self):
        low, high = Key("010"), Key("101")
        first = covering_prefixes(low, high)
        first.append(Key("111"))  # caller mutates its copy
        second = covering_prefixes(low, high)
        assert Key("111") not in second

    def test_max_length_distinguishes_entries(self):
        low, high = Key("0100"), Key("1011")
        full = covering_prefixes(low, high)
        capped = covering_prefixes(low, high, max_length=1)
        assert full != capped
        assert covering_prefixes(low, high, max_length=1) == capped
