"""Unit tests for the round-operand cache (LRU, byte budget, single-flight)."""

import threading

import numpy as np
import pytest

from repro.core.operand_cache import UNBOUNDED, OperandCache


def _arr(nbytes: int) -> np.ndarray:
    assert nbytes % 8 == 0
    return np.zeros(nbytes // 8, dtype=np.int64)


class TestCreate:
    def test_none_disables(self):
        assert OperandCache.create(None) is None

    def test_zero_disables(self):
        assert OperandCache.create(0) is None

    def test_negative_disables(self):
        assert OperandCache.create(-5) is None

    def test_unbounded(self):
        cache = OperandCache.create(float("inf"))
        assert cache is not None
        assert cache.capacity_bytes == UNBOUNDED

    def test_mb_budget(self):
        cache = OperandCache.create(2.5)
        assert cache.capacity_bytes == 2.5e6

    def test_direct_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            OperandCache(0)


class TestBasics:
    def test_miss_then_hit(self):
        cache = OperandCache(UNBOUNDED)
        calls = []
        value, hit = cache.get_or_compute(
            "k", lambda: calls.append(1) or _arr(64)
        )
        assert not hit and cache.stats.evictions == 0 and calls == [1]
        value2, hit2 = cache.get_or_compute("k", lambda: calls.append(2))
        assert hit2 and calls == [1]
        assert value2 is value

    def test_get_noncomputing(self):
        cache = OperandCache(UNBOUNDED)
        assert cache.get("missing") is None
        cache.get_or_compute("k", lambda: _arr(8))
        assert cache.get("k") is not None
        s = cache.stats
        assert s.hits == 1 and s.misses == 2  # get-miss + compute-miss

    def test_stats_and_len(self):
        cache = OperandCache(1024)
        cache.get_or_compute("a", lambda: _arr(256))
        cache.get_or_compute("b", lambda: _arr(256))
        cache.get_or_compute("a", lambda: _arr(256))
        s = cache.stats
        assert (s.hits, s.misses, s.evictions) == (1, 2, 0)
        assert s.current_bytes == 512 == s.peak_bytes
        assert s.hit_rate == pytest.approx(1 / 3)
        assert len(cache) == 2

    def test_values_frozen(self):
        cache = OperandCache(UNBOUNDED)
        value, _ = cache.get_or_compute("k", lambda: _arr(64))
        with pytest.raises(ValueError):
            value[0] = 1

    def test_clear_preserves_stats(self):
        cache = OperandCache(UNBOUNDED)
        cache.get_or_compute("a", lambda: _arr(8))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 1
        assert cache.stats.current_bytes == 0


class TestEviction:
    def test_lru_order(self):
        cache = OperandCache(3 * 64)
        for key in "abc":
            cache.get_or_compute(key, lambda: _arr(64))
        cache.get_or_compute("a", lambda: None)  # promote a
        cache.get_or_compute("d", lambda: _arr(64))
        assert cache.stats.evictions == 1
        assert cache.get("b") is None  # least recent went
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.get("d") is not None

    def test_budget_respected(self):
        cache = OperandCache(1000)
        for i in range(50):
            cache.get_or_compute(i, lambda: _arr(200))
        assert cache.stats.current_bytes <= 1000
        assert len(cache) == 5
        assert cache.stats.evictions == 45
        assert cache.stats.peak_bytes <= 1000

    def test_oversized_value_rejected_not_stored(self):
        cache = OperandCache(100)
        cache.get_or_compute("small", lambda: _arr(64))
        value, hit = cache.get_or_compute("huge", lambda: _arr(1024))
        # The rejection surfaces as an eviction.
        assert not hit and cache.stats.evictions == 1
        assert value.nbytes == 1024  # still returned to the caller
        assert cache.get("huge") is None
        assert cache.get("small") is not None  # resident set untouched

    def test_multi_entry_eviction_count(self):
        cache = OperandCache(4 * 64)
        for key in "abcd":
            cache.get_or_compute(key, lambda: _arr(64))
        cache.get_or_compute("big", lambda: _arr(3 * 64))
        assert cache.stats.evictions == 3
        assert len(cache) == 2


class TestSingleFlight:
    def test_concurrent_misses_compute_once(self):
        cache = OperandCache(UNBOUNDED)
        n_threads = 8
        calls = []
        gate = threading.Barrier(n_threads)
        results = []

        def factory():
            calls.append(threading.get_ident())
            return _arr(64)

        def worker():
            gate.wait()
            value, hit = cache.get_or_compute("k", factory)
            results.append((id(value), hit))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1  # exactly one computation
        assert len({vid for vid, _ in results}) == 1  # same object to all
        assert sum(1 for _, hit in results if not hit) == 1
        s = cache.stats
        assert s.misses == 1 and s.hits == n_threads - 1

    def test_factory_exception_releases_key(self):
        cache = OperandCache(UNBOUNDED)
        with pytest.raises(RuntimeError, match="boom"):
            cache.get_or_compute("k", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        # The key must not be wedged: a retry computes normally.
        value, hit = cache.get_or_compute("k", lambda: _arr(8))
        assert not hit and value.nbytes == 8

    def test_thread_hammer_distinct_keys(self):
        cache = OperandCache(64 * 10)  # small: forces eviction churn
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    key = int(rng.integers(0, 30))
                    value, _ = cache.get_or_compute(
                        key, lambda k=key: np.full(8, k, dtype=np.int64)
                    )
                    if not (value == key).all():
                        errors.append(f"corrupt value for {key}")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        s = cache.stats
        assert s.hits + s.misses == 6 * 200
        assert s.current_bytes <= 64 * 10
