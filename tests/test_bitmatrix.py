"""Unit + property tests for the packed BitMatrix."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bitops import BitMatrix, WORD_BITS
from repro.bitops.bitmatrix import words_for_bits

bool_matrices = hnp.arrays(
    dtype=np.bool_,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 200)),
)


class TestWordsForBits:
    @pytest.mark.parametrize(
        "bits,words", [(0, 0), (1, 1), (64, 1), (65, 2), (128, 2), (129, 3)]
    )
    def test_values(self, bits, words):
        assert words_for_bits(bits) == words


class TestRoundTrip:
    @given(bool_matrices)
    def test_pack_unpack_identity(self, rows):
        bm = BitMatrix.from_bool(rows)
        np.testing.assert_array_equal(bm.to_bool(), rows)

    @given(bool_matrices)
    def test_padding_bits_are_zero(self, rows):
        bm = BitMatrix.from_bool(rows)
        total_bits = bm.row_popcounts().sum()
        assert total_bits == rows.sum()

    def test_float32_conversion(self):
        rows = np.array([[True, False, True]])
        np.testing.assert_array_equal(
            BitMatrix.from_bool(rows).dense_operand(np.float32),
            [[1.0, 0.0, 1.0]],
        )


class TestConstruction:
    def test_zeros(self):
        bm = BitMatrix.zeros(3, 100)
        assert bm.n_rows == 3
        assert bm.n_bits == 100
        assert bm.row_popcounts().sum() == 0

    def test_rejects_wrong_word_count(self):
        with pytest.raises(ValueError, match="words cannot hold"):
            BitMatrix(data=np.zeros((2, 3), dtype=np.uint64), n_bits=64)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint64"):
            BitMatrix(data=np.zeros((2, 2), dtype=np.int64), n_bits=128)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError, match="n_bits"):
            BitMatrix(data=np.zeros((2, 0), dtype=np.uint64), n_bits=-1)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            BitMatrix.from_bool(np.zeros(5, dtype=bool))

    def test_nbytes(self):
        assert BitMatrix.zeros(4, 64).nbytes == 4 * 8


class TestOperations:
    @given(bool_matrices)
    def test_row_popcounts(self, rows):
        bm = BitMatrix.from_bool(rows)
        np.testing.assert_array_equal(bm.row_popcounts(), rows.sum(axis=1))

    def test_select_rows_view(self):
        rows = np.eye(4, 70, dtype=bool)
        bm = BitMatrix.from_bool(rows)
        sub = bm.select_rows(1, 3)
        np.testing.assert_array_equal(sub.to_bool(), rows[1:3])

    def test_select_rows_bounds(self):
        bm = BitMatrix.zeros(4, 10)
        with pytest.raises(IndexError):
            bm.select_rows(2, 5)

    @given(bool_matrices)
    def test_and_xor(self, rows):
        bm = BitMatrix.from_bool(rows)
        flipped = BitMatrix.from_bool(~rows)
        assert bm.bitwise_and(flipped).row_popcounts().sum() == 0
        np.testing.assert_array_equal(
            bm.bitwise_xor(flipped).row_popcounts(), np.full(rows.shape[0], rows.shape[1])
        )

    def test_and_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            BitMatrix.zeros(2, 10).bitwise_and(BitMatrix.zeros(2, 11))
