"""Unit tests for applyScore: masking, completion, chunking."""

import numpy as np
import pytest

from repro.bitops import combine_blocks
from repro.contingency import contingency_tables_by_class
from repro.core import apply_score
from repro.core.apply_score import RoundOperands, round_validity_mask, score_round
from repro.core.fourway import tensorop_4way
from repro.core.pairwise import pairw_pop
from repro.core.threeway import tensorop_3way
from repro.datasets import encode_dataset, generate_random_dataset
from repro.scoring import K2Score
from repro.tensor import AndPopcEngine


class TestValidityMask:
    def test_distinct_blocks_all_valid(self):
        mask = round_validity_mask((0, 4, 8, 12), 4, 16)
        assert mask.all()

    def test_same_block_only_strictly_increasing(self):
        mask = round_validity_mask((0, 0, 0, 0), 4, 16)
        idx = np.argwhere(mask)
        assert len(idx) == 1  # C(4, 4) = 1: only (0,1,2,3)
        np.testing.assert_array_equal(idx[0], [0, 1, 2, 3])

    def test_padding_excluded(self):
        mask = round_validity_mask((0, 4, 8, 12), 4, 14)
        # z = 14, 15 are padding.
        assert not mask[:, :, :, 2:].any()
        assert mask[:, :, :, :2].all()

    def test_overlapping_pair_of_blocks(self):
        mask = round_validity_mask((0, 0, 4, 8), 4, 16)
        # w, x in same block: need w < x; y, z blocks distinct.
        expected = np.tril(np.ones((4, 4), dtype=bool), -1).T
        np.testing.assert_array_equal(mask[:, :, 0, 0], expected)


def _make_round(ds, enc, engine, offsets, b, low):
    """Assemble RoundOperands for one explicit round."""
    wo, xo, yo, zo = offsets
    m = enc.n_snps
    corner4, c_wxy, c_wxz, c_wyz, c_xyz = [], [], [], [], []
    for cls in (0, 1):
        planes = enc.class_matrix(cls)
        wx = combine_blocks(planes, wo, xo, b)
        wy = combine_blocks(planes, wo, yo, b)
        xy = combine_blocks(planes, xo, yo, b)
        yz = combine_blocks(planes, yo, zo, b)
        sweep_wx = tensorop_3way(engine, wx, planes, xo, m, b)
        sweep_wy = tensorop_3way(engine, wy, planes, yo, m, b)
        sweep_xy = tensorop_3way(engine, xy, planes, yo, m, b)
        corner4.append(tensorop_4way(engine, wx, yz, b))
        c_wxy.append(sweep_wx[:, :, yo - xo : yo - xo + b])
        c_wxz.append(sweep_wx[:, :, zo - xo : zo - xo + b])
        c_wyz.append(sweep_wy[:, :, zo - yo : zo - yo + b])
        c_xyz.append(sweep_xy[:, :, zo - yo : zo - yo + b])
    return RoundOperands(
        corner4=tuple(corner4),
        corner3_wxy=tuple(c_wxy),
        corner3_wxz=tuple(c_wxz),
        corner3_wyz=tuple(c_wyz),
        corner3_xyz=tuple(c_xyz),
        offsets=offsets,
        block_size=b,
    )


def _score_grid(enc, operands, pairs, **kwargs):
    """The round's ``(B, B, B, B)`` score grid from the fused path."""
    staged = K2Score().staged_kernel(enc.n_samples)
    scores, _ = score_round(operands, pairs, staged, 16, **kwargs)
    return scores


@pytest.fixture(scope="module")
def setup():
    ds = generate_random_dataset(16, 120, seed=33)
    enc = encode_dataset(ds, block_size=4)
    low = pairw_pop(enc)
    return ds, enc, AndPopcEngine("dense"), low


class TestApplyScore:
    def test_scores_match_brute_force(self, setup):
        ds, enc, engine, low = setup
        b = 4
        score_min = K2Score()
        operands = _make_round(ds, enc, engine, (0, 4, 8, 12), b, low)
        scores = _score_grid(enc, operands, low.pairs)
        for (i, j, k, l) in [(0, 0, 0, 0), (3, 1, 2, 0), (2, 2, 2, 2)]:
            quad = (0 + i, 4 + j, 8 + k, 12 + l)
            t0, t1 = contingency_tables_by_class(ds, quad)
            expected = float(score_min(t0, t1, order=4))
            np.testing.assert_allclose(scores[i, j, k, l], expected, rtol=1e-12)

    def test_masked_positions_are_inf(self, setup):
        ds, enc, engine, low = setup
        operands = _make_round(ds, enc, engine, (0, 0, 4, 8), 4, low)
        scores = _score_grid(enc, operands, low.pairs)
        assert np.isinf(scores[2, 1, 0, 0])  # w >= x -> masked
        assert np.isfinite(scores[0, 1, 0, 0])

    def test_chunked_equals_unchunked(self, setup, monkeypatch):
        ds, enc, engine, low = setup
        operands = _make_round(ds, enc, engine, (0, 4, 4, 12), 4, low)
        full = _score_grid(enc, operands, low.pairs)
        monkeypatch.setattr(apply_score, "CHUNK_POSITIONS", 1)
        tiny = _score_grid(enc, operands, low.pairs)
        np.testing.assert_array_equal(full, tiny)

    def test_overlapping_round_scores_match_brute_force(self, setup):
        ds, enc, engine, low = setup
        score_min = K2Score()
        operands = _make_round(ds, enc, engine, (4, 4, 8, 8), 4, low)
        scores = _score_grid(enc, operands, low.pairs)
        # Valid position: w=4+0 < x=4+2, y=8+1 < z=8+3.
        quad = (4, 6, 9, 11)
        t0, t1 = contingency_tables_by_class(ds, quad)
        np.testing.assert_allclose(
            scores[0, 2, 1, 3], float(score_min(t0, t1, order=4)), rtol=1e-12
        )
