"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    normalized_snapshot,
)


class TestCounters:
    def test_inc_accumulates_per_label_set(self):
        m = MetricsRegistry()
        m.inc("epi4_rounds_total", device="0")
        m.inc("epi4_rounds_total", 2, device="0")
        m.inc("epi4_rounds_total", device="1")
        assert m.value("epi4_rounds_total", device="0") == 3
        assert m.value("epi4_rounds_total", device="1") == 1
        assert m.total("epi4_rounds_total") == 4

    def test_negative_increment_rejected(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError, match="must be >= 0"):
            m.inc("epi4_rounds_total", -1)

    def test_label_order_is_irrelevant(self):
        m = MetricsRegistry()
        m.inc("x", kind="combine", device="0")
        m.inc("x", device="0", kind="combine")
        assert m.value("x", device="0", kind="combine") == 2

    def test_memoized_label_keys_keep_values_apart(self):
        # Label keys are memoized by the labels' items; values that compare
        # equal but render differently (1, 1.0, True) stay separate series,
        # and a repeated string label set keeps hitting one series.
        m = MetricsRegistry()
        for _ in range(3):
            m.inc("x", kind="combine", device="1")
        m.inc("x", device=1)
        m.inc("x", device=1.0)
        m.inc("x", device=True)
        m.inc("x", device=1)
        assert m.series("x") == {
            (("device", "1"), ("kind", "combine")): 3.0,
            (("device", "1"),): 2.0,
            (("device", "1.0"),): 1.0,
            (("device", "True"),): 1.0,
        }

    def test_total_with_label_filter(self):
        m = MetricsRegistry()
        m.inc("x", 1, kind="combine", device="0")
        m.inc("x", 2, kind="combine", device="1")
        m.inc("x", 4, kind="sweep", device="0")
        assert m.total("x", kind="combine") == 3
        assert m.total("x", device="0") == 5

    def test_sum_by_groups(self):
        m = MetricsRegistry()
        m.inc("x", 1, phase="combine", device="0")
        m.inc("x", 2, phase="combine", device="1")
        m.inc("x", 4, phase="score", device="0")
        assert m.sum_by("x", "phase") == {"combine": 3.0, "score": 4.0}
        assert m.sum_by("x", "device") == {"0": 5.0, "1": 2.0}


class TestGauges:
    def test_set_gauge_overwrites(self):
        m = MetricsRegistry()
        m.set_gauge("epi4_wall_seconds", 1.5)
        m.set_gauge("epi4_wall_seconds", 2.5)
        assert m.value("epi4_wall_seconds") == 2.5

    def test_labeled_gauge_series(self):
        m = MetricsRegistry()
        m.set_gauge("epi4_wall_seconds", 1.0, device="1")
        m.set_gauge("epi4_wall_seconds", 0.0, device="0")
        series = m.series("epi4_wall_seconds")
        assert len(series) == 2


class TestHistograms:
    def test_observe_counts_and_sum(self):
        m = MetricsRegistry()
        for v in (0.001, 0.02, 0.02, 5000.0):
            m.observe("epi4_round_seconds", v, device="0")
        h = m.histogram("epi4_round_seconds", device="0")
        assert h.total == 4
        assert h.sum == pytest.approx(5000.041)
        assert h.buckets == DEFAULT_BUCKETS
        assert sum(h.counts) == 4
        assert h.counts[-1] == 1  # +Inf bucket got the 5000s outlier

    def test_custom_buckets(self):
        m = MetricsRegistry()
        m.register_histogram("lat", (1.0, 2.0))
        m.observe("lat", 1.5)
        h = m.histogram("lat")
        assert h.buckets == (1.0, 2.0)
        assert h.counts == (0, 1, 0)

    def test_bad_buckets_rejected(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            m.register_histogram("lat", (2.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            m.register_histogram("lat2", ())

    def test_missing_histogram_is_none(self):
        assert MetricsRegistry().histogram("nope") is None


class TestThreadSafety:
    def test_concurrent_incs_lose_nothing(self):
        m = MetricsRegistry()
        n, per = 8, 1000

        def worker(dev: int) -> None:
            for _ in range(per):
                m.inc("x", device=str(dev % 2))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.total("x") == n * per


class TestExport:
    def _registry(self) -> MetricsRegistry:
        m = MetricsRegistry()
        m.inc("epi4_rounds_total", 3, device="0")
        m.inc("epi4_rounds_total", 2, device="1")
        m.set_gauge("epi4_wall_seconds", 1.25)
        m.observe("epi4_round_seconds", 0.02, device="0")
        return m

    def test_names_sorted(self):
        assert self._registry().names() == [
            "epi4_round_seconds",
            "epi4_rounds_total",
            "epi4_wall_seconds",
        ]

    def test_snapshot_structure(self):
        snap = self._registry().snapshot()
        assert snap["counters"]["epi4_rounds_total"]['{device="0"}'] == 3
        assert snap["gauges"]["epi4_wall_seconds"][""] == 1.25
        hist = snap["histograms"]["epi4_round_seconds"]['{device="0"}']
        assert hist["count"] == 1

    def test_prometheus_text_format(self):
        text = self._registry().to_prometheus()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE epi4_rounds_total counter" in lines
        assert 'epi4_rounds_total{device="0"} 3' in lines
        assert "# TYPE epi4_wall_seconds gauge" in lines
        assert "epi4_wall_seconds 1.25" in lines
        assert "# TYPE epi4_round_seconds histogram" in lines
        assert 'epi4_round_seconds_count{device="0"} 1' in lines
        # cumulative bucket lines present with le labels
        assert any("_bucket{" in ln and 'le="+Inf"' in ln for ln in lines)

    def test_prometheus_deterministic(self):
        assert self._registry().to_prometheus() == self._registry().to_prometheus()


class TestNormalizedSnapshot:
    def test_zeroes_time_like_and_sums_devices(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        # Same totals, different device attribution and different times.
        a.inc("epi4_rounds_total", 3, device="0")
        a.inc("epi4_rounds_total", 2, device="1")
        b.inc("epi4_rounds_total", 1, device="0")
        b.inc("epi4_rounds_total", 4, device="1")
        a.inc("epi4_phase_seconds_total", 0.123, phase="score", device="0")
        b.inc("epi4_phase_seconds_total", 9.999, phase="score", device="1")
        a.set_gauge("epi4_wall_seconds", 1.0)
        b.set_gauge("epi4_wall_seconds", 2.0)
        a.observe("epi4_round_seconds", 0.001, device="0")
        b.observe("epi4_round_seconds", 7.0, device="1")
        assert normalized_snapshot(a) == normalized_snapshot(b)

    def test_keeps_deterministic_counters(self):
        m = MetricsRegistry()
        m.inc("epi4_operand_requests_total", 5, kind="combine", device="0")
        m.inc("epi4_operand_requests_total", 7, kind="combine", device="1")
        norm = normalized_snapshot(m)
        assert norm["counters"]["epi4_operand_requests_total"] == {
            '{kind="combine"}': 12.0
        }

    def test_transfer_bytes_survive(self):
        m = MetricsRegistry()
        m.inc("epi4_transfer_bytes_total", 1024, device="0")
        norm = normalized_snapshot(m)
        assert norm["counters"]["epi4_transfer_bytes_total"] == {"": 1024.0}

    def test_cache_byte_gauges_zeroed(self):
        m = MetricsRegistry()
        m.set_gauge("epi4_cache_resident_bytes", 123456.0)
        norm = normalized_snapshot(m)
        assert norm["gauges"]["epi4_cache_resident_bytes"] == {"": 0.0}
