"""Property + unit suite for the fused ``applyScore`` hot path.

Three claims are locked in here:

1. **Bit-identity** — the mask-first compacted :func:`score_round` (with or
   without the staged-lgamma kernel, with or without the cross-round
   triplet provider, at any chunk size) produces *exactly* the grid of the
   legacy dense reference :func:`apply_score_dense`, across orders of
   block overlap, padding alignments, engines and modes.
2. **Compaction accounting** — the per-round stats report exactly the
   validity-mask volume, and zero-valid rounds exit before any completion
   work (no ``full3`` requests at all).
3. **Staged scorer** — :class:`~repro.scoring.k2.StagedK2Kernel` is
   bit-identical to :class:`~repro.scoring.k2.K2Score` on the same tables
   and refuses out-of-range counts instead of wrapping.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.apply_score import (
    RoundScoreStats,
    apply_score_dense,
    round_validity_mask,
    score_round,
)
from repro.core.operand_cache import OperandCache
from repro.core.pairwise import pairw_pop
from repro.core.selfcheck import direct_round_operands
from repro.datasets import encode_dataset, generate_random_dataset
from repro.scoring import K2BoundKernel, K2Score
from repro.scoring.base import normalized_for_minimization


def _setup(n_snps=20, n_samples=112, block_size=4, seed=11):
    ds = generate_random_dataset(n_snps, n_samples, seed=seed)
    enc = encode_dataset(ds, block_size=block_size)
    pairs = pairw_pop(enc).pairs
    score = K2Score()
    score_min = normalized_for_minimization(score)
    staged = score.staged_kernel(enc.n_samples)
    return ds, enc, pairs, score_min, staged


def _cache_provider(cache: OperandCache):
    calls = {"hits": 0, "misses": 0}

    def provider(cls, triple, factory):
        value, hit, _ = cache.get_or_compute(("full3", cls, *triple), factory)
        calls["hits" if hit else "misses"] += 1
        return value, hit

    return provider, calls


# Round shapes covering every overlap order: distinct, one shared pair,
# two shared pairs, triples, the full diagonal, and padding-touching tails.
ROUND_OFFSETS = [
    (0, 4, 8, 12),
    (0, 0, 8, 12),
    (0, 4, 4, 12),
    (0, 4, 8, 8),
    (0, 0, 0, 12),
    (0, 0, 8, 8),
    (4, 4, 4, 4),
    (8, 12, 16, 16),
    (16, 16, 16, 16),
]


class TestFusedDenseBitIdentity:
    """Fused path == dense oracle, bit for bit."""

    @pytest.fixture(scope="class")
    def env(self):
        return _setup(n_snps=18, n_samples=112, block_size=4, seed=11)

    @pytest.mark.parametrize("offsets", ROUND_OFFSETS)
    def test_every_round_shape(self, env, offsets):
        _, enc, pairs, score_min, staged = env
        operands = direct_round_operands(enc, offsets, 4)
        dense = apply_score_dense(operands, pairs, score_min, enc.n_real_snps)
        fused, stats = score_round(
            operands, pairs, score_min, enc.n_real_snps
        )
        fused_staged, _ = score_round(
            operands, pairs, score_min, enc.n_real_snps, staged_kernel=staged
        )
        np.testing.assert_array_equal(dense, fused)
        np.testing.assert_array_equal(dense, fused_staged)

    @pytest.mark.parametrize("chunk_cells", [1, 81, 82, 81 * 7, 81 * 10**6])
    def test_chunk_size_neutral(self, env, chunk_cells):
        _, enc, pairs, score_min, staged = env
        operands = direct_round_operands(enc, (0, 4, 4, 12), 4)
        ref, ref_stats = score_round(
            operands, pairs, score_min, enc.n_real_snps
        )
        got, stats = score_round(
            operands, pairs, score_min, enc.n_real_snps,
            max_chunk_cells=chunk_cells, staged_kernel=staged,
        )
        np.testing.assert_array_equal(ref, got)
        assert stats.valid == ref_stats.valid
        assert stats.chunks == math.ceil(
            stats.valid / max(1, chunk_cells // 81)
        )

    @pytest.mark.parametrize("chunk_cells", [None, 1, 82, 81 * 7, 82 * 81])
    def test_chunk_size_neutral_with_pruning(self, env, chunk_cells):
        # The gate runs before chunking: at a finite threshold, which
        # positions survive and what they score must not depend on the
        # chunk size (the default, or 1, 1, 7 and 82 positions per chunk).
        _, enc, pairs, score_min, staged = env
        kernel = K2BoundKernel(staged.table, enc.n_controls, enc.n_cases)
        operands = direct_round_operands(enc, (0, 4, 8, 12), 4)
        exhaustive, _ = score_round(operands, pairs, score_min, enc.n_real_snps)
        threshold = float(np.median(exhaustive[np.isfinite(exhaustive)]))
        pruned_kwargs = {
            "staged_kernel": staged,
            "bound_kernel": kernel,
            "prune_threshold": lambda: threshold,
        }
        ref, ref_stats = score_round(
            operands, pairs, score_min, enc.n_real_snps, **pruned_kwargs
        )
        chunk_kwargs = {} if chunk_cells is None else {"max_chunk_cells": chunk_cells}
        got, stats = score_round(
            operands, pairs, score_min, enc.n_real_snps,
            **pruned_kwargs, **chunk_kwargs,
        )
        np.testing.assert_array_equal(ref, got)
        assert (stats.valid, stats.pruned) == (ref_stats.valid, ref_stats.pruned)
        assert 0 < stats.pruned < stats.valid + stats.pruned
        if chunk_cells is not None:
            assert stats.chunks == math.ceil(
                stats.valid / max(1, chunk_cells // 81)
            )
        # Survivors keep their exhaustive scores; pruned positions are +inf.
        kept = np.isfinite(got)
        np.testing.assert_array_equal(got[kept], exhaustive[kept])
        assert int(kept.sum()) == stats.valid

    def test_every_position_pruned(self, env):
        # A threshold below every bound prunes the whole round: an all-inf
        # grid, no chunk and no full3 request.
        _, enc, pairs, score_min, staged = env
        kernel = K2BoundKernel(staged.table, enc.n_controls, enc.n_cases)
        operands = direct_round_operands(enc, (0, 4, 8, 12), 4)
        mask = round_validity_mask((0, 4, 8, 12), 4, enc.n_real_snps)
        for chunk_cells in (1, 82 * 81):
            grid, stats = score_round(
                operands, pairs, score_min, enc.n_real_snps,
                max_chunk_cells=chunk_cells,
                staged_kernel=staged,
                bound_kernel=kernel,
                prune_threshold=lambda: -1.0,
            )
            assert np.isinf(grid).all()
            assert stats == RoundScoreStats(
                positions=4**4, valid=0, chunks=0,
                full3_requests=0, full3_computed=0, full3_cache_hits=0,
                pruned=int(mask.sum()),
            )

    def test_provider_neutral(self, env):
        # A cache-backed full3 provider changes which completions execute,
        # never a bit of the scores — including on a *second* pass where
        # every request is a hit.
        _, enc, pairs, score_min, staged = env
        cache = OperandCache.create(float("inf"))
        provider, calls = _cache_provider(cache)
        operands = direct_round_operands(enc, (0, 4, 8, 12), 4)
        plain, _ = score_round(operands, pairs, score_min, enc.n_real_snps)
        first, s1 = score_round(
            operands, pairs, score_min, enc.n_real_snps,
            staged_kernel=staged, full3_provider=provider,
        )
        second, s2 = score_round(
            operands, pairs, score_min, enc.n_real_snps,
            staged_kernel=staged, full3_provider=provider,
        )
        np.testing.assert_array_equal(plain, first)
        np.testing.assert_array_equal(plain, second)
        assert s1.full3_computed == 8  # 4 roles x 2 classes, all distinct
        assert s1.full3_cache_hits == 0
        assert s2.full3_computed == 0
        assert s2.full3_cache_hits == 8

    @pytest.mark.parametrize("n_real", [13, 14, 15, 16])
    def test_padding_alignments(self, n_real):
        ds, enc, pairs, score_min, staged = _setup(
            n_snps=n_real, n_samples=96, block_size=4, seed=5
        )
        for offsets in [(0, 4, 8, 12), (8, 8, 12, 12), (12, 12, 12, 12)]:
            operands = direct_round_operands(enc, offsets, 4)
            dense = apply_score_dense(
                operands, pairs, score_min, enc.n_real_snps
            )
            fused, stats = score_round(
                operands, pairs, score_min, enc.n_real_snps,
                staged_kernel=staged,
            )
            np.testing.assert_array_equal(dense, fused)
            mask = round_validity_mask(offsets, 4, enc.n_real_snps)
            assert stats.valid == int(mask.sum())

    @pytest.mark.parametrize("block_size", [3, 4, 8])
    def test_block_sizes(self, block_size):
        ds, enc, pairs, score_min, staged = _setup(
            n_snps=17, n_samples=80, block_size=block_size, seed=23
        )
        b = block_size
        nb = enc.n_snps // b
        offsets = (0, b * min(1, nb - 1), b * min(1, nb - 1), b * (nb - 1))
        operands = direct_round_operands(enc, offsets, b)
        dense = apply_score_dense(operands, pairs, score_min, enc.n_real_snps)
        fused, _ = score_round(
            operands, pairs, score_min, enc.n_real_snps, staged_kernel=staged
        )
        np.testing.assert_array_equal(dense, fused)

    def test_odd_sample_counts(self):
        # Word-boundary sample counts (not multiples of 64).
        for n in (63, 65, 97):
            ds, enc, pairs, score_min, staged = _setup(
                n_snps=12, n_samples=n, block_size=4, seed=n
            )
            operands = direct_round_operands(enc, (0, 4, 8, 8), 4)
            dense = apply_score_dense(
                operands, pairs, score_min, enc.n_real_snps
            )
            fused, _ = score_round(
                operands, pairs, score_min, enc.n_real_snps,
                staged_kernel=staged,
            )
            np.testing.assert_array_equal(dense, fused)


class TestCompactionStats:
    @pytest.fixture(scope="class")
    def env(self):
        return _setup(n_snps=18, n_samples=112, block_size=4, seed=11)

    def test_valid_matches_mask(self, env):
        _, enc, pairs, score_min, _ = env
        for offsets in ROUND_OFFSETS:
            operands = direct_round_operands(enc, offsets, 4)
            _, stats = score_round(
                operands, pairs, score_min, enc.n_real_snps
            )
            mask = round_validity_mask(offsets, 4, enc.n_real_snps)
            assert stats.positions == 4**4
            assert stats.valid == int(mask.sum())
            assert stats.compaction_ratio == mask.sum() / mask.size

    def test_zero_valid_round_short_circuits(self):
        # B < 4 fully-diagonal round has no strictly increasing quad; the
        # fused path must exit before requesting any full3 completion.
        ds, enc, pairs, score_min, _ = _setup(
            n_snps=9, n_samples=64, block_size=3, seed=2
        )
        operands = direct_round_operands(enc, (0, 0, 0, 0), 3)
        grid, stats = score_round(operands, pairs, score_min, enc.n_real_snps)
        assert np.isinf(grid).all()
        assert stats == RoundScoreStats(
            positions=81, valid=0, chunks=0,
            full3_requests=0, full3_computed=0, full3_cache_hits=0,
        )

    def test_diagonal_round_dedupes_roles(self, env):
        # All four roles of a fully-diagonal round share one block triple:
        # 2 requests total (one per class), whatever the provider sees.
        _, enc, pairs, score_min, _ = env
        operands = direct_round_operands(enc, (0, 0, 0, 0), 4)
        _, stats = score_round(operands, pairs, score_min, enc.n_real_snps)
        assert stats.valid == 1  # C(4, 4)
        assert stats.full3_requests == 2
        assert stats.full3_computed == 2

    def test_partial_overlap_role_dedup(self, env):
        # (a, a, b, b): triples {aab, abb} -> 2 unique x 2 classes.
        _, enc, pairs, score_min, _ = env
        operands = direct_round_operands(enc, (0, 0, 8, 8), 4)
        _, stats = score_round(operands, pairs, score_min, enc.n_real_snps)
        assert stats.full3_requests == 4


class TestStagedK2Kernel:
    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(0)
        score = K2Score()
        staged = score.staged_kernel(500)
        for order, cells in ((2, 9), (3, 27), (4, 81)):
            shape = (5, 7) + (3,) * order
            t0 = rng.integers(0, 6, size=shape).astype(np.int64)
            t1 = rng.integers(0, 6, size=shape).astype(np.int64)
            ref = score(t0, t1, order=order)
            via_call = staged(t0, t1, order=order)
            via_flat = staged.score_flat(
                t0.reshape(5, 7, cells), t1.reshape(5, 7, cells)
            )
            np.testing.assert_array_equal(ref, via_call)
            np.testing.assert_array_equal(ref, via_flat)

    def test_minimization_normalization_matches(self):
        # The search feeds the staged kernel where it would feed
        # normalized_for_minimization(K2Score()); K2 already minimizes, so
        # the two must agree exactly.
        rng = np.random.default_rng(3)
        score = K2Score()
        staged = score.staged_kernel(200)
        score_min = normalized_for_minimization(score)
        t0 = rng.integers(0, 3, size=(11, 3, 3, 3, 3)).astype(np.int64)
        t1 = rng.integers(0, 3, size=(11, 3, 3, 3, 3)).astype(np.int64)
        np.testing.assert_array_equal(
            score_min(t0, t1, order=4), staged(t0, t1, order=4)
        )

    def test_negative_counts_rejected(self):
        staged = K2Score().staged_kernel(100)
        t = np.zeros((1, 81), dtype=np.int64)
        bad = t.copy()
        bad[0, 3] = -42  # the fault injector's poison value
        with pytest.raises(IndexError, match="staged-lgamma"):
            staged.score_flat(bad, t)
        with pytest.raises(IndexError, match="staged-lgamma"):
            staged.score_flat(t, bad)

    def test_total_beyond_table_rejected(self):
        staged = K2Score().staged_kernel(64)
        t = np.zeros((1, 81), dtype=np.int64)
        big = t.copy()
        big[0, 0] = staged.max_total + 1
        with pytest.raises(IndexError, match="staged-lgamma"):
            staged.score_flat(big, t)

    def test_shape_mismatch_rejected(self):
        staged = K2Score().staged_kernel(64)
        with pytest.raises(ValueError, match="disagree"):
            staged.score_flat(
                np.zeros((2, 81), dtype=np.int64),
                np.zeros((3, 81), dtype=np.int64),
            )

    def test_kernel_reuses_score_table(self):
        score = K2Score()
        staged = score.staged_kernel(300)
        # Growing through the score for the same N must not reallocate.
        assert score.staged_kernel(300).table is staged.table

    def test_kernel_without_table_or_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            K2Score().staged_kernel()


class TestShiftedLgammaViews:
    def test_values_and_readonly(self):
        from math import lgamma

        from repro.scoring.lgamma_table import LgammaTable

        table = LgammaTable(40)
        for shift in (0, 1, 2, 5):
            view = table.shifted(shift)
            assert view.flags.writeable is False
            for n in (1, 2, 17, 40 - shift):
                if n + shift == 0:
                    continue  # lgamma pole
                # Bit-identical to the table's own lookup (the property the
                # staged kernel relies on); numerically lgamma(n + shift).
                assert view[n] == table(np.array([n + shift]))[0]
                assert view[n] == pytest.approx(lgamma(n + shift), rel=1e-12)
        with pytest.raises(ValueError):
            table.shifted(-1)
        with pytest.raises(ValueError):
            table.shifted(41)

    def test_view_shares_buffer(self):
        from repro.scoring.lgamma_table import LgammaTable

        table = LgammaTable(16)
        assert table.shifted(2).base is not None  # a view, not a copy


class TestAutotune:
    @pytest.fixture(scope="class")
    def env(self):
        ds = generate_random_dataset(16, 96, seed=9)
        enc = encode_dataset(ds, block_size=4)
        pairs = pairw_pop(enc).pairs
        score = K2Score()
        return enc, pairs, normalized_for_minimization(score), score

    def test_decision_from_ladder(self, env):
        from repro.core.autotune import autotune_applyscore

        enc, pairs, score_min, score = env
        decision = autotune_applyscore(
            enc, pairs, score_min,
            block_size=4, n_real_snps=enc.n_real_snps,
            staged_kernel=score.staged_kernel(enc.n_samples),
            repeats=1,
            chunk_candidates=(81 * 8, 81 * 64, 81 * 10**6),
        )
        assert decision.max_chunk_cells in decision.chunk_timings
        assert decision.block_bytes is None  # no engine -> knob inert
        assert decision.gemm_timings == {}
        assert decision.calibration_seconds > 0

    def test_equal_effective_candidates_deduped(self, env):
        from repro.core.autotune import autotune_applyscore

        enc, pairs, score_min, _ = env
        # Candidates that round to the same effective tables-per-chunk are
        # indistinguishable: only the first ladder rung is timed.
        decision = autotune_applyscore(
            enc, pairs, score_min,
            block_size=4, n_real_snps=enc.n_real_snps,
            repeats=1,
            chunk_candidates=(81 * 64, 81 * 64 + 1, 81 * 64 + 80),
        )
        assert list(decision.chunk_timings) == [81 * 64]
        assert decision.max_chunk_cells == 81 * 64

    def test_packed_engine_tunes_block_bytes(self, env):
        from repro.core.autotune import autotune_applyscore
        from repro.tensor import AndPopcEngine

        enc, pairs, score_min, _ = env
        decision = autotune_applyscore(
            enc, pairs, score_min,
            block_size=4, n_real_snps=enc.n_real_snps,
            engine=AndPopcEngine("packed"),
            repeats=1,
            chunk_candidates=(81 * 64,),
            gemm_candidates=(1 << 12, 1 << 20),
        )
        assert decision.block_bytes in {1 << 12, 1 << 20}
        assert set(decision.gemm_timings) == {1 << 12, 1 << 20}

    def test_dense_engine_leaves_gemm_knob_alone(self, env):
        from repro.core.autotune import autotune_applyscore
        from repro.tensor import AndPopcEngine

        enc, pairs, score_min, _ = env
        decision = autotune_applyscore(
            enc, pairs, score_min,
            block_size=4, n_real_snps=enc.n_real_snps,
            engine=AndPopcEngine("dense"),
            repeats=1,
            chunk_candidates=(81 * 64,),
        )
        assert decision.block_bytes is None

    def test_export_metrics(self, env):
        from repro.core.autotune import AutotuneDecision
        from repro.obs.metrics import MetricsRegistry

        decision = AutotuneDecision(
            max_chunk_cells=81 * 64,
            block_bytes=1 << 20,
            chunk_timings={81 * 64: 0.25},
            gemm_timings={1 << 20: 0.5},
            calibration_seconds=0.75,
        )
        reg = MetricsRegistry()
        decision.export_metrics(reg)
        assert reg.value("epi4_applyscore_autotune_chunk_cells") == 81 * 64
        assert reg.value("epi4_applyscore_autotune_block_bytes") == 1 << 20
        assert reg.value(
            "epi4_applyscore_autotune_calibration_seconds"
        ) == 0.75
        assert reg.value(
            "epi4_applyscore_autotune_candidate_seconds",
            knob="chunk_cells", candidate=str(81 * 64),
        ) == 0.25
