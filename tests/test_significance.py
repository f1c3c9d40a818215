"""Tests for permutation-based significance testing."""

import numpy as np
import pytest

from repro.datasets import generate_epistatic_dataset, generate_random_dataset
from repro.scoring.significance import (
    permutation_pvalue,
    search_max_statistic_pvalue,
)


class TestPerQuadPvalue:
    def test_planted_interaction_is_significant(self):
        ds, quad = generate_epistatic_dataset(
            10, 3000, interacting_snps=(0, 3, 6, 9), effect_size=2.6, seed=1
        )
        result = permutation_pvalue(ds, quad, n_permutations=99, seed=0)
        assert result.p_value <= 0.05

    def test_null_quad_is_not_significant(self):
        ds = generate_random_dataset(10, 500, seed=2)
        result = permutation_pvalue(ds, (1, 3, 5, 7), n_permutations=99, seed=0)
        assert result.p_value > 0.05

    def test_pvalue_never_zero(self):
        ds = generate_random_dataset(8, 100, seed=3)
        result = permutation_pvalue(ds, (0, 1, 2, 3), n_permutations=9, seed=0)
        assert result.p_value >= 1 / 10

    def test_null_distribution_shape(self):
        ds = generate_random_dataset(8, 100, seed=4)
        result = permutation_pvalue(ds, (0, 1, 2, 3), n_permutations=25, seed=0)
        assert result.null_scores.shape == (25,)
        assert np.isfinite(result.null_scores).all()
        assert np.isfinite(result.observed_score)

    def test_works_for_lower_orders(self):
        ds = generate_random_dataset(8, 200, seed=5)
        pair = permutation_pvalue(ds, (2, 5), n_permutations=19, seed=0)
        triple = permutation_pvalue(ds, (1, 4, 6), n_permutations=19, seed=0)
        assert 0 < pair.p_value <= 1
        assert 0 < triple.p_value <= 1

    def test_validation(self):
        ds = generate_random_dataset(8, 50, seed=0)
        with pytest.raises(ValueError, match="n_permutations"):
            permutation_pvalue(ds, (0, 1, 2, 3), n_permutations=0)
        with pytest.raises(ValueError, match="distinct"):
            permutation_pvalue(ds, (0, 0, 1, 2))

    @pytest.mark.parametrize(
        "snps", [(0, 1, 2, -1), (0, 1, 2, -1, 7), (0, 1, 2, 8), (-9, 1, 2, 3)]
    )
    def test_rejects_index_outside_dataset(self, snps):
        # A negative index must not wrap around to count a SNP from the
        # end, and an index past the end must name the valid range.
        ds = generate_random_dataset(8, 50, seed=0)
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            permutation_pvalue(ds, snps, n_permutations=3)

    def test_deterministic_with_seed(self):
        ds = generate_random_dataset(8, 120, seed=6)
        a = permutation_pvalue(ds, (0, 2, 4, 6), n_permutations=29, seed=42)
        b = permutation_pvalue(ds, (0, 2, 4, 6), n_permutations=29, seed=42)
        assert a.p_value == b.p_value
        np.testing.assert_array_equal(a.null_scores, b.null_scores)


class TestSearchMaxStatistic:
    def test_planted_interaction_survives_family_wise(self):
        ds, _ = generate_epistatic_dataset(
            8, 2500, interacting_snps=(0, 2, 4, 6), effect_size=3.0, seed=7
        )
        result = search_max_statistic_pvalue(
            ds, n_permutations=9, block_size=4, seed=0
        )
        assert result.p_value <= 0.1

    def test_pure_noise_best_quad_not_significant(self):
        ds = generate_random_dataset(8, 300, seed=8)
        result = search_max_statistic_pvalue(
            ds, n_permutations=19, block_size=4, seed=0
        )
        # The best-of-all-quads statistic on noise should look like the
        # permutation null.
        assert result.p_value > 0.05

    def test_validation(self):
        ds = generate_random_dataset(8, 50, seed=0)
        with pytest.raises(ValueError, match="n_permutations"):
            search_max_statistic_pvalue(ds, n_permutations=0)
