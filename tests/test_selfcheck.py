"""Tests for the independent self-verification path."""

import numpy as np
import pytest

from repro.contingency import contingency_tables_by_class
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.core.selfcheck import (
    SelfCheckError,
    direct_quad_tables,
    verify_round_best,
)
from repro.datasets import encode_dataset, generate_random_dataset
from repro.scoring import K2Score


class TestDirectTables:
    def test_matches_dense_histogram(self):
        ds = generate_random_dataset(10, 130, seed=1)
        enc = encode_dataset(ds)
        for quad in [(0, 1, 2, 3), (2, 5, 7, 9), (0, 4, 8, 9)]:
            t0, t1 = direct_quad_tables(enc, quad)
            e0, e1 = contingency_tables_by_class(ds, quad)
            np.testing.assert_array_equal(t0, e0)
            np.testing.assert_array_equal(t1, e1)

    def test_tables_sum_to_class_sizes(self):
        ds = generate_random_dataset(8, 97, case_fraction=0.4, seed=2)
        enc = encode_dataset(ds)
        t0, t1 = direct_quad_tables(enc, (1, 3, 5, 7))
        assert t0.sum() == ds.n_controls
        assert t1.sum() == ds.n_cases


class TestVerifyRound:
    def test_accepts_consistent_scores(self):
        ds = generate_random_dataset(8, 80, seed=3)
        enc = encode_dataset(ds, block_size=4)
        fn = K2Score()
        t0, t1 = contingency_tables_by_class(ds, (0, 1, 4, 5))
        scores = np.full((4, 4, 4, 4), np.inf)
        scores[0, 1, 0, 1] = float(fn(t0, t1, order=4))
        verify_round_best(enc, scores, (0, 0, 4, 4), fn)  # must not raise

    def test_rejects_corrupted_score(self):
        ds = generate_random_dataset(8, 80, seed=3)
        enc = encode_dataset(ds, block_size=4)
        fn = K2Score()
        scores = np.full((4, 4, 4, 4), np.inf)
        scores[0, 1, 0, 1] = 42.0  # not the true score of (0, 1, 4, 5)
        with pytest.raises(SelfCheckError, match="corruption"):
            verify_round_best(enc, scores, (0, 0, 4, 4), fn)

    def test_fully_masked_round_is_skipped(self):
        ds = generate_random_dataset(8, 80, seed=3)
        enc = encode_dataset(ds, block_size=4)
        fn = K2Score()
        verify_round_best(
            enc, np.full((4, 4, 4, 4), np.inf), (0, 0, 4, 4), fn
        )


class TestSearchIntegration:
    @pytest.mark.parametrize("engine_kind", ["and_popc", "xor_popc"])
    def test_selfcheck_passes_on_clean_pipeline(self, engine_kind):
        ds = generate_random_dataset(13, 140, seed=4)
        res = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, selfcheck=True, engine_kind=engine_kind)
        ).run()
        base = Epi4TensorSearch(ds, SearchConfig(block_size=4)).run()
        assert res.solution == base.solution
