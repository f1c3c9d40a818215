"""Unit + property tests for the scoring subsystem."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaln

from repro.scoring import K2Score, LgammaTable

table_pairs = st.tuples(
    hnp.arrays(np.int64, (3, 3, 3, 3), elements=st.integers(0, 30)),
    hnp.arrays(np.int64, (3, 3, 3, 3), elements=st.integers(0, 30)),
).filter(lambda ts: ts[0].sum() > 0 and ts[1].sum() > 0)


class TestLgammaTable:
    def test_matches_scipy(self):
        table = LgammaTable(50)
        idx = np.arange(1, 51)
        np.testing.assert_allclose(table(idx), gammaln(idx))

    def test_zero_sentinel(self):
        assert LgammaTable(5)(np.array([0]))[0] == 0.0

    def test_for_samples_covers_k2_arguments(self):
        table = LgammaTable.for_samples(100)
        table(np.array([102]))  # r_i + 2 with r_i = N
        with pytest.raises(IndexError):
            table(np.array([103]))

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError, match="out of table range"):
            LgammaTable(5)(np.array([-1]))

    def test_rejects_bad_max(self):
        with pytest.raises(ValueError):
            LgammaTable(0)

    def test_nbytes(self):
        assert LgammaTable(10).nbytes == 11 * 8


class TestK2:
    @given(table_pairs)
    def test_matches_direct_gammaln_formula(self, tables):
        t0, t1 = tables
        total = t0 + t1
        expected = (
            gammaln(total + 2) - gammaln(t1 + 1) - gammaln(t0 + 1)
        ).sum()
        np.testing.assert_allclose(K2Score()(t0, t1), expected, rtol=1e-12)

    def test_lower_for_associated_table(self):
        # A perfectly separating table must score better (lower) than a
        # perfectly balanced one of the same size.
        separated0 = np.zeros((3, 3, 3, 3), dtype=np.int64)
        separated1 = np.zeros_like(separated0)
        separated0[0, 0, 0, 0] = 50
        separated1[2, 2, 2, 2] = 50
        balanced = np.full((3, 3, 3, 3), 2, dtype=np.int64)
        k2 = K2Score()
        assert k2(separated0, separated1) < k2(balanced, balanced)

    def test_separating_pair_table_scores_lower(self):
        t_sep0 = np.zeros((3, 3), dtype=np.int64)
        t_sep1 = np.zeros_like(t_sep0)
        t_sep0[0, 0] = 20
        t_sep1[2, 2] = 20
        t_flat = np.full((3, 3), 3, dtype=np.int64)
        k2 = K2Score()
        assert float(k2(t_sep0, t_sep1)) < float(k2(t_flat, t_flat))

    def test_batched_matches_loop(self, rng):
        t0 = rng.integers(0, 9, (5, 3, 3, 3, 3))
        t1 = rng.integers(0, 9, (5, 3, 3, 3, 3))
        k2 = K2Score()
        batched = k2(t0, t1, order=4)
        singles = [float(k2(t0[i], t1[i])) for i in range(5)]
        np.testing.assert_allclose(batched, singles)

    def test_grows_table_lazily(self):
        k2 = K2Score(LgammaTable(4))
        t = np.full((3, 3), 100, dtype=np.int64)
        k2(t, t)  # must not raise

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            K2Score()(np.zeros((3, 3)), np.zeros((3, 3, 3)))


class TestPermutationInvariance:
    @given(table_pairs)
    def test_cell_permutation_invariance(self, tables):
        # K2 is a sum over cells, so permuting the genotype axes must not
        # change the score.
        t0, t1 = tables
        perm = (2, 0, 3, 1)
        k2 = K2Score()
        a = k2(t0, t1)
        b = k2(t0.transpose(perm), t1.transpose(perm))
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


class TestOrderInference:
    def test_explicit_order_separates_batch(self, rng):
        t = rng.integers(0, 5, (3, 3, 3))  # batch of 3 pair-tables
        out = K2Score()(t, t, order=2)
        assert out.shape == (3,)

    def test_inferred_order_unbatched(self, rng):
        t = rng.integers(0, 5, (3, 3, 3))
        out = K2Score()(t, t)  # inferred as one order-3 table
        assert out.shape == ()

    def test_rejects_uninferable(self):
        with pytest.raises(ValueError, match="cannot infer"):
            K2Score()(np.zeros((4, 2)), np.zeros((4, 2)))

    def test_rejects_invalid_explicit_order(self):
        with pytest.raises(ValueError, match="order"):
            K2Score()(np.zeros((3, 3)), np.zeros((3, 3)), order=5)
