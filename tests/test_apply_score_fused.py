"""Property + unit suite for the fused ``applyScore`` hot path.

Three claims are locked in here:

1. **Bit-identity** — the chunked :func:`score_round` (with or without
   the cross-round triplet provider and the per-run term table, at any
   chunk size, pruning or not) produces *exactly* the grid of the legacy
   dense reference :func:`apply_score_dense`, across orders of block
   overlap, padding alignments and class sizes, and prunes exactly the
   positions the bound oracle of ``tests/test_bounds.py`` prunes.
2. **Compaction accounting** — the per-round stats report exactly the
   validity-mask volume, zero-valid rounds exit before any completion
   work (no ``full3`` requests at all), and a round requests only the
   completed triplets the derivation reads (``wxz``, ``wyz``, ``xyz``).
3. **Staged scorer** — :class:`~repro.scoring.k2.StagedK2Kernel` is
   bit-identical to :class:`~repro.scoring.k2.K2Score` on the same tables
   and refuses out-of-range counts instead of wrapping.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import apply_score
from repro.core.apply_score import (
    RoundScoreStats,
    apply_score_dense,
    round_validity_mask,
    score_round,
)
from repro.core.operand_cache import OperandCache
from repro.core.pairwise import pairw_pop
from repro.core.selfcheck import direct_round_operands
from repro.datasets import Dataset, encode_dataset, generate_random_dataset
from repro.scoring import PRUNE_SLACK, K2BoundKernel, K2Score


def _setup(n_snps=20, n_samples=112, block_size=4, seed=11):
    ds = generate_random_dataset(n_snps, n_samples, seed=seed)
    enc = encode_dataset(ds, block_size=block_size)
    pairs = pairw_pop(enc).pairs
    score = K2Score()
    staged = score.staged_kernel(enc.n_samples)
    return ds, enc, pairs, score, staged


def _recording_provider(cache: OperandCache | None = None):
    """A ``full3_provider`` that records every request as ``(cls, triple,
    served_from_cache)``; it completes each table itself without a
    cache."""
    calls: list[tuple[int, tuple[int, int, int], bool]] = []

    def provider(cls, triple, factory):
        if cache is None:
            value, hit = factory(), False
        else:
            value, hit = cache.get_or_compute(("full3", cls, *triple), factory)
        calls.append((cls, triple, hit))
        return value

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
        fused, stats = score_round(operands, pairs, staged, enc.n_real_snps)
        np.testing.assert_array_equal(dense, fused)

    @pytest.mark.parametrize("positions", [1, 7, 81, 82, 567, 81_000_000])
    def test_chunk_size_neutral(self, env, monkeypatch, positions):
        # The chunk constant (positions per chunk) moves no score: one
        # position per chunk, odd sizes, and one chunk for the whole round.
        _, enc, pairs, score_min, staged = env
        operands = direct_round_operands(enc, (0, 4, 4, 12), 4)
        ref, ref_stats = score_round(
            operands, pairs, staged, enc.n_real_snps
        )
        monkeypatch.setattr(apply_score, "CHUNK_POSITIONS", positions)
        got, stats = score_round(
            operands, pairs, staged, enc.n_real_snps
        )
        np.testing.assert_array_equal(ref, got)
        assert stats.valid == ref_stats.valid
        assert stats.chunks == math.ceil(stats.valid / positions)

    @pytest.mark.parametrize("positions", [None, 1, 7, 82, 567, 6642])
    def test_chunk_size_neutral_with_pruning(self, env, monkeypatch, positions):
        # The threshold is read once per round and every chunk is bounded
        # against it: which positions survive and what they score must not
        # depend on the chunk size (the default, 1, 7, 82 or more positions
        # than the round has).
        _, enc, pairs, score_min, staged = env
        kernel = K2BoundKernel(staged.table, enc.n_controls, enc.n_cases)
        operands = direct_round_operands(enc, (0, 4, 8, 12), 4)
        exhaustive, _ = score_round(operands, pairs, staged, enc.n_real_snps)
        threshold = float(np.median(exhaustive[np.isfinite(exhaustive)]))
        pruned_kwargs = {
            "bound_kernel": kernel,
            "prune_threshold": lambda: threshold,
        }
        ref, ref_stats = score_round(
            operands, pairs, staged, enc.n_real_snps, **pruned_kwargs
        )
        if positions is not None:
            monkeypatch.setattr(apply_score, "CHUNK_POSITIONS", positions)
        got, stats = score_round(
            operands, pairs, staged, enc.n_real_snps, **pruned_kwargs
        )
        np.testing.assert_array_equal(ref, got)
        assert (stats.valid, stats.pruned) == (ref_stats.valid, ref_stats.pruned)
        assert 0 < stats.pruned < stats.valid + stats.pruned
        if positions is not None:
            # Chunks walk the mask-valid positions, pruned ones included.
            assert stats.chunks == math.ceil(
                (stats.valid + stats.pruned) / positions
            )
        # Survivors keep their exhaustive scores; pruned positions are +inf.
        kept = np.isfinite(got)
        np.testing.assert_array_equal(got[kept], exhaustive[kept])
        assert int(kept.sum()) == stats.valid

    def test_every_position_pruned(self, env, monkeypatch):
        # A threshold below every bound prunes the whole round: an all-inf
        # grid and no full3 request, though every chunk was bounded.
        _, enc, pairs, score_min, staged = env
        kernel = K2BoundKernel(staged.table, enc.n_controls, enc.n_cases)
        operands = direct_round_operands(enc, (0, 4, 8, 12), 4)
        mask = round_validity_mask((0, 4, 8, 12), 4, enc.n_real_snps)
        for positions in (1, 82):
            monkeypatch.setattr(apply_score, "CHUNK_POSITIONS", positions)
            provider, calls = _recording_provider()
            grid, stats = score_round(
                operands, pairs, staged, enc.n_real_snps,
                full3_provider=provider,
                bound_kernel=kernel,
                prune_threshold=lambda: -1.0,
            )
            assert np.isinf(grid).all()
            assert stats == RoundScoreStats(
                positions=4**4, valid=0,
                chunks=math.ceil(int(mask.sum()) / positions),
                pruned=int(mask.sum()),
            )
            assert calls == []

    def test_provider_neutral(self, env):
        # A cache-backed full3 provider changes which completions execute,
        # never a bit of the scores — including on a *second* pass where
        # every request is a hit.
        _, enc, pairs, score_min, staged = env
        cache = OperandCache.create(float("inf"))
        provider, calls = _recording_provider(cache)
        operands = direct_round_operands(enc, (0, 4, 8, 12), 4)
        plain, _ = score_round(operands, pairs, staged, enc.n_real_snps)
        first, _ = score_round(
            operands, pairs, staged, enc.n_real_snps,
            full3_provider=provider,
        )
        first_calls = list(calls)
        second, _ = score_round(
            operands, pairs, staged, enc.n_real_snps,
            full3_provider=provider,
        )
        np.testing.assert_array_equal(plain, first)
        np.testing.assert_array_equal(plain, second)
        # 3 derived levels x 2 classes, all distinct: every request of the
        # first pass completes, every request of the second is a hit.
        assert [hit for *_, hit in first_calls] == [False] * 6
        assert [hit for *_, hit in calls[6:]] == [True] * 6

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
                operands, pairs, staged, enc.n_real_snps,
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
            operands, pairs, staged, enc.n_real_snps
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
                operands, pairs, staged, enc.n_real_snps,
            )
            np.testing.assert_array_equal(dense, fused)


class TestCompactionStats:
    @pytest.fixture(scope="class")
    def env(self):
        return _setup(n_snps=18, n_samples=112, block_size=4, seed=11)

    def test_valid_matches_mask(self, env):
        _, enc, pairs, _, staged = env
        for offsets in ROUND_OFFSETS:
            operands = direct_round_operands(enc, offsets, 4)
            _, stats = score_round(
                operands, pairs, staged, enc.n_real_snps
            )
            mask = round_validity_mask(offsets, 4, enc.n_real_snps)
            assert stats.positions == 4**4
            assert stats.valid == int(mask.sum())
            assert stats.compaction_ratio == mask.sum() / mask.size

    def test_zero_valid_round_short_circuits(self):
        # B < 4 fully-diagonal round has no strictly increasing quad; the
        # fused path must exit before requesting any full3 completion.
        ds, enc, pairs, _, staged = _setup(
            n_snps=9, n_samples=64, block_size=3, seed=2
        )
        operands = direct_round_operands(enc, (0, 0, 0, 0), 3)
        provider, calls = _recording_provider()
        grid, stats = score_round(
            operands, pairs, staged, enc.n_real_snps, full3_provider=provider
        )
        assert np.isinf(grid).all()
        assert stats == RoundScoreStats(positions=81, valid=0, chunks=0)
        assert calls == []

    def test_diagonal_round_dedupes_roles(self, env):
        # All three derived levels of a fully-diagonal round read one block
        # triple: 2 requests total (one per class).
        _, enc, pairs, _, staged = env
        operands = direct_round_operands(enc, (0, 0, 0, 0), 4)
        provider, calls = _recording_provider()
        _, stats = score_round(
            operands, pairs, staged, enc.n_real_snps, full3_provider=provider
        )
        assert stats.valid == 1  # C(4, 4)
        assert calls == [(0, (0, 0, 0), False), (1, (0, 0, 0), False)]

    def test_partial_overlap_role_dedup(self, env):
        # (a, a, b, b): triples {aab, abb} -> 2 unique x 2 classes.
        _, enc, pairs, _, staged = env
        operands = direct_round_operands(enc, (0, 0, 8, 8), 4)
        provider, calls = _recording_provider()
        score_round(
            operands, pairs, staged, enc.n_real_snps, full3_provider=provider
        )
        assert sorted((cls, triple) for cls, triple, _ in calls) == [
            (cls, triple) for cls in (0, 1) for triple in ((0, 0, 8), (0, 8, 8))
        ]

    def test_off_diagonal_round_requests_only_derived_triplets(self, env):
        # Each derived level reads the triplet without its axis: an
        # off-diagonal round requests wxz, wyz and xyz once per class, and
        # never completes wxy (its corner slice alone feeds the bound).
        _, enc, pairs, _, staged = env
        wo, xo, yo, zo = offsets = (0, 4, 8, 12)
        operands = direct_round_operands(enc, offsets, 4)
        provider, calls = _recording_provider()
        score_round(
            operands, pairs, staged, enc.n_real_snps, full3_provider=provider
        )
        derived = [(wo, xo, zo), (wo, yo, zo), (xo, yo, zo)]
        for cls in (0, 1):
            requested = [triple for c, triple, _ in calls if c == cls]
            assert sorted(requested) == derived
            assert (wo, xo, yo) not in requested
        assert sorted(apply_score.round_triples(offsets)) == derived


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
        # The search scores with the staged kernel; it must agree exactly
        # with K2Score, which minimizes as the search's reduction does.
        rng = np.random.default_rng(3)
        score = K2Score()
        staged = score.staged_kernel(200)
        t0 = rng.integers(0, 3, size=(11, 3, 3, 3, 3)).astype(np.int64)
        t1 = rng.integers(0, 3, size=(11, 3, 3, 3, 3)).astype(np.int64)
        np.testing.assert_array_equal(
            score(t0, t1, order=4), staged(t0, t1, order=4)
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



def _kernel_env(block_size, classes):
    """Padded data for the chunked-kernel grid: ``block_size`` 4 over 14
    SNPs (padded to 16) or 8 over 30 (padded to 32); ``classes`` is
    ``"balanced"`` (about 56/56 of 112 samples) or ``"tiny-case"`` (3
    cases, 93 controls)."""
    n_snps = 14 if block_size == 4 else 30
    ds = generate_random_dataset(n_snps, 112 if classes == "balanced" else 96, seed=19)
    if classes == "tiny-case":
        phenotypes = np.zeros(ds.n_samples, dtype=bool)
        phenotypes[[5, 40, 77]] = True
        ds = Dataset(genotypes=ds.genotypes, phenotypes=phenotypes)
    enc = encode_dataset(ds, block_size=block_size)
    pairs = pairw_pop(enc).pairs
    score = K2Score()
    staged = score.staged_kernel(enc.n_samples)
    kernel = K2BoundKernel(staged.table, enc.n_controls, enc.n_cases)
    return enc, pairs, score, staged, kernel


class TestChunkedKernelAgainstDense:
    """The chunked kernel against the dense reference and the bound
    oracle: B = 4 and 8 over padded SNP ranges, balanced classes and a
    3-case class, a fully diagonal, a three-shared-block and an
    off-diagonal round, thresholds of +inf, the median and below every
    bound, with the term table forced on and off and the chunk constant
    at 1, 7 and 82 positions."""

    @pytest.fixture(scope="class")
    def rounds(self):
        """``{(B, classes, kind): (env, operands, dense grid, reference
        bounds of the mask-valid positions)}``."""
        from tests.test_bounds import _reference_quad_bounds

        out = {}
        for b in (4, 8):
            for classes in ("balanced", "tiny-case"):
                env = _kernel_env(b, classes)
                enc, pairs, score, _, kernel = env
                for kind, offsets in (
                    ("diagonal", (b, b, b, b)),
                    ("three-shared", (0, 0, 0, 3 * b)),
                    ("off-diagonal", (0, b, 2 * b, 3 * b)),
                ):
                    operands = direct_round_operands(enc, offsets, b)
                    dense = apply_score_dense(
                        operands, pairs, score, enc.n_real_snps
                    )
                    mask = round_validity_mask(offsets, b, enc.n_real_snps)
                    bounds = _reference_quad_bounds(
                        kernel, operands, *np.nonzero(mask)
                    )
                    out[b, classes, kind] = (env, operands, dense, mask, bounds)
        return out

    @pytest.mark.parametrize("positions", [1, 7, 82])
    @pytest.mark.parametrize("table", ["table", "three-gather"])
    @pytest.mark.parametrize("threshold", ["inf", "median", "below-all"])
    @pytest.mark.parametrize("kind", ["diagonal", "three-shared", "off-diagonal"])
    @pytest.mark.parametrize("classes", ["balanced", "tiny-case"])
    @pytest.mark.parametrize("b", [4, 8])
    def test_grid(
        self, rounds, monkeypatch, b, classes, kind, threshold, table, positions
    ):
        from repro.scoring import workspace as workspace_module

        (enc, pairs, _, staged, kernel), operands, dense, mask, bounds = rounds[
            b, classes, kind
        ]
        assert enc.n_real_snps < enc.n_snps  # padded M
        if classes == "tiny-case":
            assert enc.n_cases <= 3
        limit = {
            "inf": math.inf,
            "median": float(np.median(dense[mask])),
            "below-all": -1.0,
        }[threshold]
        monkeypatch.setattr(
            workspace_module,
            "TERM_TABLE_MAX_BYTES",
            2**40 if table == "table" else 0,
        )
        monkeypatch.setattr(apply_score, "CHUNK_POSITIONS", positions)
        terms = workspace_module.K2CellTerms(
            staged.table, enc.n_controls, enc.n_cases
        )
        assert (terms.table is not None) == (table == "table")
        provider, calls = _recording_provider()
        grid, stats = score_round(
            operands, pairs, staged, enc.n_real_snps,
            full3_provider=provider,
            bound_kernel=kernel,
            prune_threshold=lambda: limit,
            workspace=workspace_module.K2Workspace(terms, positions),
        )
        pruned = np.zeros_like(mask)
        if math.isfinite(limit):
            pruned[mask] = bounds > limit + PRUNE_SLACK
        np.testing.assert_array_equal(np.isinf(grid) & mask, pruned)
        expected = np.where(pruned, np.inf, dense)
        np.testing.assert_array_equal(grid, expected)
        assert stats.pruned == int(pruned.sum())
        assert stats.valid == int(mask.sum()) - stats.pruned
        assert stats.chunks == math.ceil(int(mask.sum()) / positions)
        if threshold == "median":
            # Positions scoring at or below the median bound below it too.
            assert stats.valid > 0
        if threshold == "below-all":
            assert stats.valid == 0 and calls == []
