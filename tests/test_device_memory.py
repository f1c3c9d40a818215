"""Tests for the device-memory estimator and its search integration."""

import pytest

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.device.memory import (
    DeviceMemoryError,
    cache_working_set_bytes,
    check_fits,
    estimate_search_memory,
    held_operand_bytes,
    triplet_working_set_bytes,
)
from repro.device.specs import A100_PCIE, TITAN_RTX


class TestEstimate:
    def test_components_positive(self):
        est = estimate_search_memory(2048, 131072, 131072, 32)
        assert all(v > 0 for v in est.components.values())
        assert est.total_bytes == sum(est.components.values())

    def test_paper_dataset_sizing(self):
        # §3.6: 16384 SNPs x 1M samples is ~3.8 GB of dataset planes.
        est = estimate_search_memory(16384, 500000, 500000, 32)
        assert est.components["dataset planes"] == pytest.approx(
            3.8e9, rel=0.15
        )

    def test_paper_largest_search_fits_a100(self):
        # The paper runs 4096 x 524288 on 40/80 GB A100s.
        est = estimate_search_memory(4096, 262144, 262144, 32)
        check_fits(A100_PCIE, est)  # must not raise

    def test_sweeps_scale_with_m_not_m3(self):
        # The point of the three-phase scheme: 3-way storage is O(B^2 * M).
        small = estimate_search_memory(256, 1000, 1000, 32)
        large = estimate_search_memory(2048, 1000, 1000, 32)
        ratio = (
            large.components["3-way sweep corners"]
            / small.components["3-way sweep corners"]
        )
        assert ratio == pytest.approx(2048 / 256)

    def test_format_mentions_total(self):
        est = estimate_search_memory(64, 500, 500, 8)
        assert "total" in est.format()

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            estimate_search_memory(0, 10, 10, 4)


class TestHeldOperands:
    def test_equals_bytes_held_by_the_first_iteration(self, monkeypatch):
        # Only iteration Wi = 0 sweeps with first offset 0, and it holds
        # each such sweep from its one launch to the iteration's end.
        import repro.core.search as search_mod

        executor_cls = search_mod._SingleDeviceExecutor
        sweep3 = executor_cls.sweep3
        launched = []

        def recording(self, cls, off_a, off_b, combined=None):
            out = sweep3(self, cls, off_a, off_b, combined=combined)
            if off_a == 0:
                launched.append((cls, off_b, out.nbytes))
            return out

        monkeypatch.setattr(executor_cls, "sweep3", recording)
        ds = generate_random_dataset(20, 120, seed=4)
        search = Epi4TensorSearch(ds, SearchConfig(block_size=4, prune=False))
        search.run()
        assert len(launched) == len({(c, off) for c, off, _ in launched})
        held = sum(nbytes for _, _, nbytes in launched)
        assert held == held_operand_bytes(20, 4)
        # Host memory of the simulator, not charged to the device.
        assert "held operands" not in search.memory_estimate.components

    def test_grows_as_b_m_squared_not_m_cubed(self):
        small = held_operand_bytes(256, 32)
        large = held_operand_bytes(2048, 32)
        # sum over b of (M - b*B) is B * nb * (nb + 1) / 2.
        assert large / small == pytest.approx((64 * 65) / (8 * 9))


class TestCacheBudget:
    def test_disabled_has_no_component(self):
        est = estimate_search_memory(64, 500, 500, 8)
        assert "operand cache" not in est.components

    def test_finite_budget_charged_as_given(self):
        est = estimate_search_memory(
            64, 500, 500, 8, cache_budget_bytes=1_000_000
        )
        assert est.components["operand cache"] == 1_000_000

    def test_unbounded_charged_at_working_set(self):
        ws = cache_working_set_bytes(64, 500, 500, 8)
        ws += triplet_working_set_bytes(64, 8)
        est = estimate_search_memory(
            64, 500, 500, 8, cache_budget_bytes=float("inf")
        )
        assert est.components["operand cache"] == ws

    def test_budget_above_working_set_capped(self):
        ws = cache_working_set_bytes(64, 500, 500, 8)
        ws += triplet_working_set_bytes(64, 8)
        est = estimate_search_memory(
            64, 500, 500, 8, cache_budget_bytes=ws * 100
        )
        assert est.components["operand cache"] == ws

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="cache_budget_bytes"):
            estimate_search_memory(64, 500, 500, 8, cache_budget_bytes=-1)

    def test_working_set_validation(self):
        with pytest.raises(ValueError, match="positive"):
            cache_working_set_bytes(0, 10, 10, 4)

    def test_working_set_is_finite_bound_of_resident_cache(self):
        # An unbounded in-practice cache never exceeds the modelled
        # working set (the §3.3 check can therefore trust the charge).
        from repro.core.search import SearchConfig as SC

        ds = generate_random_dataset(24, 160, seed=7)
        search = Epi4TensorSearch(ds, SC(block_size=4, cache_mb=float("inf")))
        res = search.run()
        m = res.block_scheme.n_snps
        ws = cache_working_set_bytes(m, 80, 80, 4)
        ws += triplet_working_set_bytes(m, 4)  # full3 entries share the cache
        assert res.cache_stats.peak_bytes <= ws

    def test_search_estimate_includes_cache(self):
        ds = generate_random_dataset(12, 100, seed=0)
        off = Epi4TensorSearch(ds, SearchConfig(block_size=4))
        on = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, cache_mb=0.5)
        )
        assert "operand cache" not in off.memory_estimate.components
        assert on.memory_estimate.components["operand cache"] > 0
        assert on.memory_estimate.total_bytes > off.memory_estimate.total_bytes


class TestCheckFits:
    def test_raises_with_breakdown(self):
        # A pathological block size blows the score buffers past 24 GB.
        est = estimate_search_memory(4096, 2**20, 2**20, 256)
        with pytest.raises(DeviceMemoryError, match="total"):
            check_fits(TITAN_RTX, est)

    def test_reserve_validation(self):
        est = estimate_search_memory(64, 500, 500, 8)
        with pytest.raises(ValueError, match="reserve_fraction"):
            check_fits(TITAN_RTX, est, reserve_fraction=1.0)


class TestSearchIntegration:
    def test_search_exposes_estimate(self):
        ds = generate_random_dataset(12, 100, seed=0)
        search = Epi4TensorSearch(ds, SearchConfig(block_size=4))
        assert search.memory_estimate.total_bytes > 0

    def test_progress_callback_invoked(self):
        ds = generate_random_dataset(12, 100, seed=0)
        seen = []

        def on_round(done, total, best):
            seen.append((done, total, best.score))

        search = Epi4TensorSearch(ds, SearchConfig(block_size=4))
        result = search.run(progress_callback=on_round)
        assert len(seen) == result.block_scheme.n_rounds
        assert seen[-1][0] == result.block_scheme.n_rounds
        assert seen[-1][2] == result.best_score
