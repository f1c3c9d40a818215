"""Unit suite for the admissible K2 bound kernel.

The branch-and-bound gate is only sound if the bound never overestimates
the exact score; everything else (pruning power, elision rate) is a
performance question.  This file locks in:

1. **Admissibility** — ``quad_bounds <= exact`` for every valid position
   across the overlap-order round shapes, and ``round_bound`` lower-bounds
   both the quad bounds and the exact masked minimum.
2. **Fail-safety** — implausible counts (the fault injector's planted
   negatives, totals beyond the lgamma table) make the kernel decline
   (``None`` / ``-inf``) rather than emit a bound that could mis-prune.
3. **Identities** — the ``log(n + 1)`` remainder trick and the per-cell
   minorant the proofs rest on.
4. **Bit-identity with the fancy-index formulation** — the flat-gather
   ``quad_bounds`` and the masked ``round_bound`` return exactly the
   values of the 4-index gather / full-grid reference kept here as an
   oracle, on direct and engine-produced operands and both corner dtypes.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import repro.core.search as search_module
from repro.core.apply_score import (
    RoundOperands,
    apply_score_dense,
    round_validity_mask,
)
from repro.core.pairwise import pairw_pop
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.core.selfcheck import direct_round_operands
from repro.datasets import encode_dataset, generate_random_dataset
from repro.scoring import K2Score, PRUNE_SLACK, K2BoundKernel
from repro.scoring.base import normalized_for_minimization
from repro.scoring.lgamma_table import LgammaTable

# Same overlap-order coverage as the fused applyScore suite: distinct
# blocks, shared pairs, triples, the diagonal, and padding-touching tails.
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


def _setup(n_snps=18, n_samples=112, block_size=4, seed=11):
    ds = generate_random_dataset(n_snps, n_samples, seed=seed)
    enc = encode_dataset(ds, block_size=block_size)
    pairs = pairw_pop(enc).pairs
    score = K2Score()
    score_min = normalized_for_minimization(score)
    staged = score.staged_kernel(enc.n_samples)
    kernel = K2BoundKernel(staged.table, enc.n_controls, enc.n_cases)
    return enc, pairs, score_min, kernel


@pytest.fixture(scope="module")
def env():
    return _setup()


def _reference_gather_48(kernel, operands, w, x, y, z):
    """Oracle: per class, the ``(V, 48)`` known-cell counts by 4-index
    fancy indexing into ``(B, B, B, B, 2, 2, 2, 2)``, fibers by
    ``sum(axis=k)`` and one ``np.concatenate``, plus the ``(V,)``
    remainders; ``None`` on implausible counts."""
    per_class = []
    for cls, n_class in ((0, kernel.n_controls), (1, kernel.n_cases)):
        c4 = np.asarray(operands.corner4[cls][w, x, y, z], dtype=np.int64)
        n = c4.shape[0]
        fibers = (
            operands.corner3_xyz[cls][x, y, z] - c4.sum(axis=1),  # g_w=2
            operands.corner3_wyz[cls][w, y, z] - c4.sum(axis=2),  # g_x=2
            operands.corner3_wxz[cls][w, x, z] - c4.sum(axis=3),  # g_y=2
            operands.corner3_wxy[cls][w, x, y] - c4.sum(axis=4),  # g_z=2
        )
        cells = np.concatenate(
            [c4.reshape(n, 16)]
            + [np.asarray(f, dtype=np.int64).reshape(n, 8) for f in fibers],
            axis=1,
        )
        rest = n_class - cells.sum(axis=1)
        if cells.size and (int(cells.min()) < 0 or int(rest.min()) < 0):
            return None
        per_class.append((cells, rest))
    (cells0, rest0), (cells1, rest1) = per_class
    if cells0.size and int((cells0 + cells1).max()) > kernel.max_total:
        return None
    return cells0, rest0, cells1, rest1


def _reference_quad_bounds(kernel, operands, w, x, y, z):
    gathered = _reference_gather_48(kernel, operands, w, x, y, z)
    if gathered is None:
        return None
    cells0, rest0, cells1, rest1 = gathered
    return (
        kernel._cell_terms(cells0, cells1).sum(axis=1)
        + kernel._log1(rest0)
        + kernel._log1(rest1)
    )


def _reference_round_bound(kernel, corner4, mask):
    """Oracle: 16-corner bounds over the whole ``(B, B, B, B)`` grid, then
    the masked minimum."""
    per_class = []
    for cls, n_class in ((0, kernel.n_controls), (1, kernel.n_cases)):
        c4 = np.asarray(corner4[cls], dtype=np.int64)
        b = c4.shape[0]
        cells = c4.reshape(b, b, b, b, 16)
        rest = n_class - cells.sum(axis=-1)
        if cells.size and (int(cells.min()) < 0 or int(rest.min()) < 0):
            return -math.inf
        per_class.append((cells, rest))
    (cells0, rest0), (cells1, rest1) = per_class
    if cells0.size and int((cells0 + cells1).max()) > kernel.max_total:
        return -math.inf
    grid = (
        kernel._cell_terms(cells0, cells1).sum(axis=-1)
        + kernel._log1(rest0)
        + kernel._log1(rest1)
    )
    masked = grid[mask]
    if masked.size == 0:
        return math.inf
    return float(masked.min())


def _with_corner_dtype(operands, dtype):
    def cast(pair):
        return tuple(np.asarray(c, dtype=dtype) for c in pair)

    return replace(
        operands,
        corner4=cast(operands.corner4),
        corner3_wxy=cast(operands.corner3_wxy),
        corner3_wxz=cast(operands.corner3_wxz),
        corner3_wyz=cast(operands.corner3_wyz),
        corner3_xyz=cast(operands.corner3_xyz),
    )


def _assert_matches_oracle(kernel, operands, n_real_snps):
    mask = round_validity_mask(
        operands.offsets, operands.block_size, n_real_snps
    )
    w, x, y, z = np.nonzero(mask)
    got = kernel.quad_bounds(operands, w, x, y, z)
    assert got is not None
    assert np.array_equal(got, _reference_quad_bounds(kernel, operands, w, x, y, z))
    assert kernel.round_bound(operands.corner4, mask) == _reference_round_bound(
        kernel, operands.corner4, mask
    )


@pytest.fixture(scope="module")
def env8():
    """Block size 8 over 36 SNPs (padded to 40)."""
    return _setup(n_snps=36, n_samples=112, block_size=8, seed=5)


@pytest.fixture(scope="module")
def engine_rounds():
    """Every round's operands from a real pruned ``search.run()``: engine
    corners (int64 ``corner4``, int32 ``corner3``) and ``corner3`` slices
    of wider sweeps, most of them non-contiguous."""
    ds = generate_random_dataset(20, 96, seed=4)
    search = Epi4TensorSearch(ds, SearchConfig(block_size=4, top_k=3))
    captured = []
    score_round = search_module.score_round

    def recording(operands, *args, **kwargs):
        captured.append(operands)
        return score_round(operands, *args, **kwargs)

    search_module.score_round = recording
    try:
        search.run()
    finally:
        search_module.score_round = score_round
    return captured, search._bound_kernel, ds.n_snps


class TestAdmissibility:
    @pytest.mark.parametrize("offsets", ROUND_OFFSETS)
    def test_quad_bounds_never_exceed_exact(self, env, offsets):
        enc, pairs, score_min, kernel = env
        operands = direct_round_operands(enc, offsets, 4)
        exact = apply_score_dense(operands, pairs, score_min, enc.n_real_snps)
        mask = round_validity_mask(offsets, 4, enc.n_real_snps)
        w, x, y, z = np.nonzero(mask)
        if w.size == 0:
            return
        bounds = kernel.quad_bounds(operands, w, x, y, z)
        assert bounds is not None
        assert bounds.shape == (w.size,)
        # The gate keeps ties, so admissibility-with-slack is the exact
        # contract it relies on.
        assert np.all(bounds <= exact[mask] + PRUNE_SLACK)

    @pytest.mark.parametrize("offsets", ROUND_OFFSETS)
    def test_round_bound_below_quad_bounds_and_exact(self, env, offsets):
        enc, pairs, score_min, kernel = env
        operands = direct_round_operands(enc, offsets, 4)
        mask = round_validity_mask(offsets, 4, enc.n_real_snps)
        rb = kernel.round_bound(operands.corner4, mask)
        if not mask.any():
            assert rb == math.inf
            return
        w, x, y, z = np.nonzero(mask)
        quad = kernel.quad_bounds(operands, w, x, y, z)
        exact = apply_score_dense(operands, pairs, score_min, enc.n_real_snps)
        # The 16-corner bound knows strictly less than the 48-cell bound,
        # which in turn never exceeds the exact score.
        assert rb <= quad.min() + PRUNE_SLACK
        assert rb <= float(exact[mask].min()) + PRUNE_SLACK

    def test_bounds_are_positive_finite(self, env):
        # Every K2 term is non-negative and the remainder adds log(n+1)
        # terms, so real datasets yield strictly positive finite bounds.
        enc, _, _, kernel = env
        operands = direct_round_operands(enc, (0, 4, 8, 12), 4)
        mask = round_validity_mask((0, 4, 8, 12), 4, enc.n_real_snps)
        w, x, y, z = np.nonzero(mask)
        bounds = kernel.quad_bounds(operands, w, x, y, z)
        assert np.all(np.isfinite(bounds))
        assert np.all(bounds > 0)


class TestFlatGatherOracle:
    """The flat gather returns the fancy-index reference's bits exactly."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("offsets", ROUND_OFFSETS)
    def test_direct_operands_b4(self, env, offsets, dtype):
        enc, _, _, kernel = env
        operands = _with_corner_dtype(
            direct_round_operands(enc, offsets, 4), dtype
        )
        _assert_matches_oracle(kernel, operands, enc.n_real_snps)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("offsets", ROUND_OFFSETS)
    def test_direct_operands_b8(self, env8, offsets, dtype):
        enc, _, _, kernel = env8
        offsets = tuple(2 * o for o in offsets)
        operands = _with_corner_dtype(
            direct_round_operands(enc, offsets, 8), dtype
        )
        _assert_matches_oracle(kernel, operands, enc.n_real_snps)

    @pytest.mark.parametrize("dtype", [None, np.int32, np.int64])
    def test_engine_operands(self, engine_rounds, dtype):
        rounds, kernel, n_real = engine_rounds
        assert rounds
        assert any(
            not c.flags.c_contiguous for op in rounds for c in op.corner3_wxy
        )
        for operands in rounds:
            if dtype is not None:
                operands = _with_corner_dtype(operands, dtype)
            _assert_matches_oracle(kernel, operands, n_real)


class TestFailSafety:
    def _corrupt(self, operands, value=-42):
        c0 = operands.corner4[0].copy()
        c0[0, 0, 0, 0, 0, 0, 0, 0] = value
        return RoundOperands(
            corner4=(c0, operands.corner4[1]),
            corner3_wxy=operands.corner3_wxy,
            corner3_wxz=operands.corner3_wxz,
            corner3_wyz=operands.corner3_wyz,
            corner3_xyz=operands.corner3_xyz,
            offsets=operands.offsets,
            block_size=operands.block_size,
        )

    def test_negative_corner_declines_quad_bounds(self, env):
        # The fault injector plants negative counts in corner4; the kernel
        # must refuse to bound rather than gather a garbage lgamma term.
        enc, _, _, kernel = env
        operands = self._corrupt(direct_round_operands(enc, (0, 4, 8, 12), 4))
        mask = round_validity_mask((0, 4, 8, 12), 4, enc.n_real_snps)
        w, x, y, z = np.nonzero(mask)
        assert kernel.quad_bounds(operands, w, x, y, z) is None

    def test_negative_corner_never_elides_round(self, env):
        enc, _, _, kernel = env
        operands = self._corrupt(direct_round_operands(enc, (0, 4, 8, 12), 4))
        mask = round_validity_mask((0, 4, 8, 12), 4, enc.n_real_snps)
        assert kernel.round_bound(operands.corner4, mask) == -math.inf

    def test_inflated_corner_declines(self, env):
        # A too-large count (sum beyond N) shows up as a negative fiber or
        # remainder after marginal subtraction.
        enc, _, _, kernel = env
        operands = self._corrupt(
            direct_round_operands(enc, (0, 4, 8, 12), 4),
            value=10 * (kernel.n_controls + kernel.n_cases),
        )
        mask = round_validity_mask((0, 4, 8, 12), 4, enc.n_real_snps)
        w, x, y, z = np.nonzero(mask)
        assert kernel.quad_bounds(operands, w, x, y, z) is None

    def test_table_overflow_declines(self):
        # A kernel built over a deliberately undersized lgamma table must
        # decline instead of wrapping through the fancy gather.
        enc, _, _, _ = _setup(n_snps=8, n_samples=64, seed=3)
        small = K2BoundKernel(LgammaTable(4), enc.n_controls, enc.n_cases)
        operands = direct_round_operands(enc, (0, 0, 0, 0), 4)
        mask = round_validity_mask((0, 0, 0, 0), 4, enc.n_real_snps)
        w, x, y, z = np.nonzero(mask)
        assert small.quad_bounds(operands, w, x, y, z) is None
        assert small.round_bound(operands.corner4, mask) == -math.inf

    def test_zero_valid_round_is_always_elidable(self, env):
        enc, _, _, kernel = env
        operands = direct_round_operands(enc, (0, 4, 8, 12), 4)
        empty = np.zeros((4, 4, 4, 4), dtype=bool)
        assert kernel.round_bound(operands.corner4, empty) == math.inf


class TestIdentities:
    def test_log1_matches_log(self, env):
        _, _, _, kernel = env
        n = np.arange(0, 100, dtype=np.int64)
        np.testing.assert_allclose(
            kernel._log1(n), np.log(n + 1.0), rtol=0, atol=1e-12
        )

    def test_cell_minorant(self, env):
        # f(a, b) >= log((a+1)(b+1)), the inequality both bound terms rest
        # on; equality iff a == 0 or b == 0.
        _, _, _, kernel = env
        a, b = np.meshgrid(np.arange(30), np.arange(30), indexing="ij")
        a = a.astype(np.int64)
        b = b.astype(np.int64)
        f = kernel._cell_terms(a, b)
        minorant = np.log(a + 1.0) + np.log(b + 1.0)
        assert np.all(f >= minorant - 1e-12)
        boundary = (a == 0) | (b == 0)
        np.testing.assert_allclose(f[boundary], minorant[boundary], atol=1e-12)
        assert np.all(f[~boundary] > minorant[~boundary])

    def test_exports(self):
        import repro.scoring as scoring

        assert scoring.K2BoundKernel is K2BoundKernel
        assert scoring.PRUNE_SLACK == PRUNE_SLACK
        assert "K2BoundKernel" in scoring.__all__
