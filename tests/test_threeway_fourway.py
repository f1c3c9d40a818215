"""Unit tests for the tensorOp_3way / tensorOp_4way kernels."""

import numpy as np
import pytest

from repro.bitops import combine_blocks
from repro.bitops.combine import diagonal_compact
from repro.contingency import contingency_table
from repro.core.pairwise import pairw_pop
from repro.core.fourway import tensorop_4way, tensorop_4way_batch
from repro.core.threeway import complete_threeway, tensorop_3way
from repro.datasets import encode_dataset, generate_random_dataset
from repro.tensor import AndPopcEngine, XorPopcEngine, make_engine


@pytest.fixture(scope="module")
def setup():
    ds = generate_random_dataset(16, 140, seed=21)
    enc = encode_dataset(ds, block_size=4)
    return ds, enc, AndPopcEngine("dense")


class TestTensorOp3Way:
    def test_corner_matches_brute_force(self, setup):
        ds, enc, engine = setup
        b = 4
        wx = combine_blocks(enc.controls, 0, 8, b)
        corner = tensorop_3way(engine, wx, enc.controls, 8, 16, b)
        assert corner.shape == (b, b, 8, 2, 2, 2)
        g = ds.class_genotypes(0)
        for (i, j, t) in [(0, 0, 0), (1, 3, 5), (3, 2, 7)]:
            full = contingency_table(g[[0 + i, 8 + j, 8 + t]])
            np.testing.assert_array_equal(corner[i, j, t], full[:2, :2, :2])

    def test_xor_engine_same_corner(self, setup):
        _, enc, engine = setup
        b = 4
        wx = combine_blocks(enc.cases, 4, 4, b)
        c_and = tensorop_3way(engine, wx, enc.cases, 4, 12, b)
        c_xor = tensorop_3way(XorPopcEngine("dense"), wx, enc.cases, 4, 12, b)
        np.testing.assert_array_equal(c_and, c_xor)

    def test_rejects_bad_combined_rows(self, setup):
        _, enc, engine = setup
        wx = combine_blocks(enc.controls, 0, 0, 4)
        with pytest.raises(ValueError, match="4\\*B\\^2"):
            tensorop_3way(engine, wx, enc.controls, 0, 4, 8)

    def test_rejects_bad_tail_range(self, setup):
        _, enc, engine = setup
        wx = combine_blocks(enc.controls, 0, 0, 4)
        with pytest.raises(ValueError, match="tail range"):
            tensorop_3way(engine, wx, enc.controls, 12, 20, 4)

    def test_complete_threeway_matches_brute_force(self, setup):
        ds, enc, engine = setup
        b = 4
        low = pairw_pop(enc)
        wx = combine_blocks(enc.controls, 0, 4, b)
        corner = tensorop_3way(engine, wx, enc.controls, 8, 16, b)
        full = complete_threeway(
            corner,
            low.pairs[0],
            np.arange(0, 4),
            np.arange(4, 8),
            np.arange(8, 16),
        )
        g = ds.class_genotypes(0)
        for (i, j, t) in [(0, 0, 0), (2, 1, 6), (3, 3, 7)]:
            expected = contingency_table(g[[i, 4 + j, 8 + t]])
            np.testing.assert_array_equal(full[i, j, t], expected)


class TestTensorOp4Way:
    def test_corner_matches_brute_force(self, setup):
        ds, enc, engine = setup
        b = 4
        wx = combine_blocks(enc.cases, 0, 4, b)
        yz = combine_blocks(enc.cases, 8, 12, b)
        corner = tensorop_4way(engine, wx, yz, b)
        assert corner.shape == (b, b, b, b, 2, 2, 2, 2)
        g = ds.class_genotypes(1)
        for (i, j, k, l) in [(0, 0, 0, 0), (1, 2, 3, 0), (3, 3, 3, 3)]:
            full = contingency_table(g[[i, 4 + j, 8 + k, 12 + l]])
            np.testing.assert_array_equal(
                corner[i, j, k, l], full[:2, :2, :2, :2]
            )

    def test_xor_engine_same_corner(self, setup):
        _, enc, engine = setup
        b = 4
        wx = combine_blocks(enc.controls, 0, 4, b)
        yz = combine_blocks(enc.controls, 4, 8, b)
        np.testing.assert_array_equal(
            tensorop_4way(engine, wx, yz, b),
            tensorop_4way(XorPopcEngine("packed"), wx, yz, b),
        )

    def test_rejects_bad_operands(self, setup):
        _, enc, engine = setup
        wx = combine_blocks(enc.controls, 0, 4, 4)
        with pytest.raises(ValueError, match="combined_yz"):
            tensorop_4way(engine, wx, enc.controls, 4)


class TestDiagonalCompact:
    """Same-block operands carry only their ``w < x`` rows; the corners
    must equal the full GEMM's at every kept position and be zero at the
    dropped ones."""

    @pytest.mark.parametrize("b", [4, 8])
    @pytest.mark.parametrize("kind", ["and_popc", "xor_popc"])
    @pytest.mark.parametrize("mode", ["dense", "packed"])
    def test_compact_corners_equal_full(self, b, kind, mode):
        # 2B + 3 SNPs: the last block is padded with all-zero SNPs.
        ds = generate_random_dataset(2 * b + 3, 150, seed=b)
        enc = encode_dataset(ds, block_size=b)
        engine = make_engine(kind, mode)
        w, x, y, z = np.indices((b,) * 4)
        last = enc.n_snps - b
        for planes in (enc.cases, enc.cases.with_float_planes()):
            wx = combine_blocks(planes, last, last, b)
            yz_diag = combine_blocks(planes, b, b, b)
            yz_off = combine_blocks(planes, b, last, b)
            wx_c = diagonal_compact(wx, b)
            yz_c = diagonal_compact(yz_diag, b)
            assert wx_c.n_rows == 2 * b * (b - 1)
            for full_yz, yz, kept in (
                (yz_off, yz_off, w < x),
                (yz_diag, yz_c, (w < x) & (y < z)),
            ):
                expected = tensorop_4way(engine, wx, full_yz, b)
                got = tensorop_4way(engine, wx_c, yz, b)
                np.testing.assert_array_equal(got[kept], expected[kept])
                assert not got[~kept].any()
            # A compact wx against full and compact yz in one fused launch.
            batch = tensorop_4way_batch(engine, wx_c, [yz_c, yz_off], b)
            np.testing.assert_array_equal(
                batch[0], tensorop_4way(engine, wx_c, yz_c, b)
            )
            np.testing.assert_array_equal(
                batch[1], tensorop_4way(engine, wx_c, yz_off, b)
            )

    def test_only_full_or_compact_row_counts(self, setup):
        _, enc, engine = setup
        wx = combine_blocks(enc.controls, 0, 4, 4)
        bad = enc.controls.select_rows(0, 2 * 4 * 3 + 2)
        with pytest.raises(ValueError, match=r"combined_yz\[1\] has 26 rows"):
            tensorop_4way_batch(engine, wx, [wx, bad], 4)
        with pytest.raises(ValueError, match="combined_wx has 26 rows"):
            tensorop_4way(engine, bad, wx, 4)

    def test_rejects_compacting_a_non_combined_operand(self, setup):
        _, enc, _ = setup
        with pytest.raises(ValueError, match="4\\*B\\^2"):
            diagonal_compact(enc.controls, 4)
