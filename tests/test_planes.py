"""Float32 genotype planes: every dense operand formed from them equals
the unpacked packed operand, bit for bit."""

import numpy as np
import pytest

from repro.bitops import BitMatrix, combine_blocks
from repro.bitops.combine import diagonal_compact, diagonal_rows


@pytest.fixture
def planes():
    rng = np.random.default_rng(7)
    # 3 blocks of B=4 SNPs, 2 planes each; 150 bits (a partial last word).
    return BitMatrix.from_bool(rng.random((24, 150)) < 0.4)


def _unpacked(bm: BitMatrix) -> np.ndarray:
    return BitMatrix(bm.data, bm.n_bits).dense_operand(np.float32)


class TestFloatPlanes:
    def test_built_once_read_only(self, planes):
        fp = planes.with_float_planes()
        assert fp.data is planes.data  # the packed words are shared
        dense = fp.dense_operand(np.float32)
        assert dense.dtype == np.float32 and not dense.flags.writeable
        np.testing.assert_array_equal(dense, planes.to_bool())

    def test_tail_is_a_view_of_the_planes(self, planes):
        fp = planes.with_float_planes()
        tail = fp.select_rows(8, 24).dense_operand(np.float32)
        assert np.shares_memory(tail, fp.planes.planes)
        np.testing.assert_array_equal(tail, planes.select_rows(8, 24).to_bool())

    @pytest.mark.parametrize("a,b", [(0, 4), (4, 4), (8, 0)])
    def test_combined_operand_is_plane_product(self, planes, a, b):
        fp = planes.with_float_planes()
        combined = combine_blocks(fp, a, b, 4)
        np.testing.assert_array_equal(
            combined.dense_operand(np.float32), _unpacked(combined)
        )

    def test_diagonal_compact_rows(self, planes):
        fp = planes.with_float_planes()
        full = combine_blocks(fp, 4, 4, 4)
        compact = diagonal_compact(full, 4)
        assert compact.n_rows == 2 * 4 * 3
        np.testing.assert_array_equal(compact.data, full.data[diagonal_rows(4)])
        np.testing.assert_array_equal(
            compact.dense_operand(np.float32), _unpacked(compact)
        )

    def test_stacked_operands_keep_their_planes(self, planes):
        fp = planes.with_float_planes()
        parts = [
            combine_blocks(fp, 0, 8, 4),
            diagonal_compact(combine_blocks(fp, 8, 8, 4), 4),
            fp.select_rows(4, 10),
        ]
        stacked = BitMatrix.vstack(parts)
        assert stacked.planes is not None
        np.testing.assert_array_equal(
            stacked.dense_operand(np.float32), _unpacked(stacked)
        )

    def test_packed_only_matrix_unpacks(self, planes):
        # Mixing in a matrix without planes falls back to the unpack.
        fp = planes.with_float_planes()
        stacked = BitMatrix.vstack([fp.select_rows(0, 4), planes.select_rows(4, 8)])
        assert stacked.planes is None
        np.testing.assert_array_equal(
            stacked.dense_operand(np.float32), planes.select_rows(0, 8).to_bool()
        )

    def test_float64_operand_unpacks(self, planes):
        combined = combine_blocks(planes.with_float_planes(), 0, 4, 4)
        dense = combined.dense_operand(np.float64)
        assert dense.dtype == np.float64
        np.testing.assert_array_equal(dense, _unpacked(combined))

    def test_planes_must_match_shape(self, planes):
        fp = planes.with_float_planes()
        with pytest.raises(ValueError, match="planes describe 24 rows"):
            BitMatrix(planes.data[:4], planes.n_bits, fp.planes)
