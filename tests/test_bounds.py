"""Unit suite for the admissible K2 bound kernel.

The branch-and-bound gate is only sound if the bound never overestimates
the exact score; everything else (pruning power) is a performance
question.  This file locks in:

1. **Admissibility** — ``quad_bounds <= exact`` for every valid position
   across the overlap-order round shapes.
2. **Fail-safety** — implausible counts (the fault injector's planted
   negatives, totals beyond the lgamma table) make the kernel decline
   (``None``) rather than emit a bound that could mis-prune.
3. **Identities** — the ``log(n + 1)`` remainder trick and the per-cell
   minorant the proofs rest on.
4. **Bit-identity with the fancy-index formulation** — the flat-gather
   ``quad_bounds`` returns exactly the values of the 4-index gather
   reference kept here as an oracle, on direct and engine-produced
   operands and both corner dtypes.
"""

from __future__ import annotations

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
    staged = score.staged_kernel(enc.n_samples)
    kernel = K2BoundKernel(staged.table, enc.n_controls, enc.n_cases)
    return enc, pairs, score, kernel


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


class TestTermTableFailSafety:
    """Implausible counts never reach the term table: the bound declines,
    and scoring raises ``IndexError`` as ``score_flat`` does, with the
    per-run term table on and off.  A case count above ``N1`` would
    otherwise alias into the next control count's row of the table."""

    OFFSETS = (0, 4, 8, 12)

    @pytest.fixture(params=["table", "three-gather"])
    def terms(self, request, env, monkeypatch):
        from repro.scoring import workspace as workspace_module

        enc, _, _, kernel = env
        monkeypatch.setattr(
            workspace_module,
            "TERM_TABLE_MAX_BYTES",
            2**40 if request.param == "table" else 0,
        )
        terms = workspace_module.K2CellTerms(
            kernel.table, enc.n_controls, enc.n_cases
        )
        assert (terms.table is not None) == (request.param == "table")
        return terms

    def _score(self, env, terms, operands, **kwargs):
        from repro.core.apply_score import score_round
        from repro.scoring.workspace import K2Workspace

        enc, pairs, score, kernel = env
        return score_round(
            operands, pairs, score.staged_kernel(enc.n_samples),
            enc.n_real_snps,
            bound_kernel=kernel,
            prune_threshold=lambda: 1e9,
            workspace=K2Workspace(terms, 64),
            **kwargs,
        )

    def _bounds(self, env, operands):
        enc, _, _, kernel = env
        mask = round_validity_mask(self.OFFSETS, 4, enc.n_real_snps)
        return kernel.quad_bounds(operands, *np.nonzero(mask))

    def _with_corner4(self, operands, value):
        c0 = operands.corner4[0].copy()
        c0[1, 2, 3, 0, 0, 0, 0, 0] = value
        return replace(operands, corner4=(c0, operands.corner4[1]))

    def test_negative_count(self, env, terms):
        enc = env[0]
        operands = self._with_corner4(
            direct_round_operands(enc, self.OFFSETS, 4), -42
        )
        assert self._bounds(env, operands) is None
        with pytest.raises(IndexError):
            self._score(env, terms, operands)

    def test_corner4_count_above_n0(self, env, terms):
        enc = env[0]
        operands = self._with_corner4(
            direct_round_operands(enc, self.OFFSETS, 4), enc.n_controls + 1
        )
        assert self._bounds(env, operands) is None
        with pytest.raises(IndexError):
            self._score(env, terms, operands)

    def test_two_aa_cell_above_class_size(self, env, terms):
        # Lowering the xyz corner count at g = (0, 0, 0) by N0 + 1 inflates
        # the completed xyz triplet's (2, 0, 0) cell by as much, and with
        # it the two-aa cell (2, 2, 0, 0) beyond N0.  The g_w = 2 fiber
        # drops below zero, so the bound declines.
        enc = env[0]
        operands = direct_round_operands(enc, self.OFFSETS, 4)
        xyz = operands.corner3_xyz[0].copy()
        xyz[2, 3, 0, 0, 0, 0] -= enc.n_controls + 1
        operands = replace(operands, corner3_xyz=(xyz, operands.corner3_xyz[1]))
        assert self._bounds(env, operands) is None
        with pytest.raises(IndexError):
            self._score(env, terms, operands)

    def test_inflated_completed_triplet_is_not_looked_up(self, env, terms):
        # The 48 known cells stay plausible (the bound is finite), but the
        # completed xyz triplet served for the round adds N0 + 1 controls
        # to the two-aa cell (2, 2, 0, 0) of every quad (w, 1, 2, 3).  The
        # totals stay inside the lgamma table, so only the per-class range
        # check stands between those counts and another cell's term.
        from repro.contingency.complete import complete_quad as complete_table
        from repro.core.threeway import complete_threeway

        enc, pairs, _, _ = env
        operands = direct_round_operands(enc, self.OFFSETS, 4)
        assert self._bounds(env, operands) is not None
        idx = [np.arange(o, o + 4) for o in self.OFFSETS]

        def full3(cls, corners, a, b, c):
            return complete_threeway(
                corners[cls], pairs[cls], idx[a], idx[b], idx[c]
            )

        cell = [
            complete_table(
                operands.corner4[cls],
                full3(cls, operands.corner3_wxy, 0, 1, 2)[:, :, :, None],
                full3(cls, operands.corner3_wxz, 0, 1, 3)[:, :, None, :],
                full3(cls, operands.corner3_wyz, 0, 2, 3)[:, None],
                full3(cls, operands.corner3_xyz, 1, 2, 3)[None],
            )[:, 1, 2, 3, 2, 2, 0, 0]
            for cls in (0, 1)
        ]
        assert np.all(cell[0] + enc.n_controls + 1 + cell[1] <= enc.n_samples)

        def provider(cls, triple, factory):
            table = factory()
            if cls == 0 and triple == self.OFFSETS[1:]:
                table = table.copy()
                table[1, 2, 3, 2, 0, 0] += enc.n_controls + 1
            return table

        with pytest.raises(IndexError):
            self._score(env, terms, operands, full3_provider=provider)


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
