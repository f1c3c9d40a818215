"""Unit + property tests for the binary tensor engines and §3.4 translation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bitops import BitMatrix
from repro.tensor import (
    AndPopcEngine,
    XorPopcEngine,
    make_engine,
    xor_to_and_counts,
)
from repro.tensor.engine import GemmShape
from repro.tensor.gemm_packed import gemm_and_popcount, gemm_xor_popcount

pair_of_operands = st.tuples(
    st.integers(1, 9), st.integers(1, 7), st.integers(1, 150)
).flatmap(
    lambda dims: st.tuples(
        hnp.arrays(np.bool_, (dims[0], dims[2])),
        hnp.arrays(np.bool_, (dims[1], dims[2])),
    )
)


def reference_and_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.astype(np.int64) @ b.astype(np.int64).T


class TestAndEngine:
    @given(pair_of_operands)
    def test_dense_matches_reference(self, ops):
        a, b = ops
        engine = AndPopcEngine("dense")
        out = engine.matmul_popcount(BitMatrix.from_bool(a), BitMatrix.from_bool(b))
        np.testing.assert_array_equal(out, reference_and_counts(a, b))

    @given(pair_of_operands)
    def test_packed_matches_dense(self, ops):
        a, b = ops
        bma, bmb = BitMatrix.from_bool(a), BitMatrix.from_bool(b)
        np.testing.assert_array_equal(
            AndPopcEngine("packed").matmul_popcount(bma, bmb),
            AndPopcEngine("dense").matmul_popcount(bma, bmb),
        )

    def test_records_shapes(self):
        engine = AndPopcEngine("dense")
        a = BitMatrix.zeros(3, 100)
        engine.matmul_popcount(a, a)
        assert engine.last_shapes == [GemmShape(m=3, n=3, k_bits=100)]
        engine.reset_shapes()
        assert engine.last_shapes == []

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="widths differ"):
            AndPopcEngine("dense").matmul_popcount(
                BitMatrix.zeros(2, 64), BitMatrix.zeros(2, 65)
            )


class TestXorEngine:
    @given(pair_of_operands)
    def test_raw_xor_counts(self, ops):
        a, b = ops
        engine = XorPopcEngine("packed")
        out = engine.raw_xor_popcount(BitMatrix.from_bool(a), BitMatrix.from_bool(b))
        expected = (a[:, None, :] ^ b[None, :, :]).sum(axis=-1)
        np.testing.assert_array_equal(out, expected)

    @given(pair_of_operands)
    def test_translated_equals_and(self, ops):
        a, b = ops
        bma, bmb = BitMatrix.from_bool(a), BitMatrix.from_bool(b)
        np.testing.assert_array_equal(
            XorPopcEngine("packed").matmul_popcount(bma, bmb),
            reference_and_counts(a, b),
        )

    @given(pair_of_operands)
    def test_dense_and_packed_paths_agree(self, ops):
        a, b = ops
        bma, bmb = BitMatrix.from_bool(a), BitMatrix.from_bool(b)
        np.testing.assert_array_equal(
            XorPopcEngine("dense").raw_xor_popcount(bma, bmb),
            XorPopcEngine("packed").raw_xor_popcount(bma, bmb),
        )


class TestTranslationLayer:
    def test_known_example(self):
        # A = 1100, B = 1010: POPC(A)=2, POPC(B)=2, XOR=0110 -> 2, AND=1000 -> 1.
        xor = np.array([[2]])
        out = xor_to_and_counts(xor, np.array([2]), np.array([2]))
        assert out[0, 0] == 1

    def test_rejects_inconsistent_parity(self):
        with pytest.raises(ValueError, match="inconsistent"):
            xor_to_and_counts(np.array([[1]]), np.array([2]), np.array([2]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="inconsistent"):
            xor_to_and_counts(np.array([[6]]), np.array([2]), np.array([2]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            xor_to_and_counts(np.zeros((2, 2), dtype=int), np.zeros(3), np.zeros(2))


class TestPackedGemm:
    @given(pair_of_operands)
    def test_blocked_equals_unblocked(self, ops):
        a, b = ops
        bma, bmb = BitMatrix.from_bool(a), BitMatrix.from_bool(b)
        # Tiny block budget forces multi-block execution.
        np.testing.assert_array_equal(
            gemm_and_popcount(bma, bmb, block_bytes=64),
            gemm_and_popcount(bma, bmb),
        )
        np.testing.assert_array_equal(
            gemm_xor_popcount(bma, bmb, block_bytes=64),
            gemm_xor_popcount(bma, bmb),
        )

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="widths differ"):
            gemm_and_popcount(BitMatrix.zeros(1, 64), BitMatrix.zeros(1, 128))

    def test_zero_word_operands(self):
        # Regression: n_words == 0 (bit-less matrices) must not divide by
        # zero or blow the tile size — the result is an all-zero count grid.
        a, b = BitMatrix.zeros(3, 0), BitMatrix.zeros(2, 0)
        np.testing.assert_array_equal(
            gemm_and_popcount(a, b), np.zeros((3, 2), dtype=np.int64)
        )
        np.testing.assert_array_equal(
            gemm_xor_popcount(a, b), np.zeros((3, 2), dtype=np.int64)
        )

    def test_tiny_budget_still_progresses(self):
        # Regression: a budget below one row's bytes must clamp to 1-row
        # tiles, not stall at zero rows.
        rng = np.random.default_rng(5)
        a = BitMatrix.from_bool(rng.random((5, 130)) < 0.5)
        b = BitMatrix.from_bool(rng.random((4, 130)) < 0.5)
        np.testing.assert_array_equal(
            gemm_and_popcount(a, b, block_bytes=1),
            gemm_and_popcount(a, b),
        )

    def test_block_rows_clamped_to_operands(self):
        from repro.tensor.gemm_packed import _block_rows

        # A huge budget must not size tiles beyond the actual row counts.
        assert _block_rows(0, 1 << 30, max_rows=5) == 5
        assert _block_rows(4, 1 << 30, max_rows=7) == 7
        # Degenerate inputs still yield at least one row per tile.
        assert _block_rows(4, 1) == 1
        assert _block_rows(0, 1, max_rows=0) == 1

    def test_engine_block_bytes_knob(self):
        # The knob must flow into the packed GEMM and stay result-neutral.
        rng = np.random.default_rng(6)
        a = BitMatrix.from_bool(rng.random((6, 200)) < 0.5)
        b = BitMatrix.from_bool(rng.random((5, 200)) < 0.5)
        ref = AndPopcEngine("packed").matmul_popcount(a, b)
        eng = AndPopcEngine("packed", block_bytes=64)
        np.testing.assert_array_equal(eng.matmul_popcount(a, b), ref)
        with pytest.raises(ValueError, match="block_bytes"):
            AndPopcEngine("packed", block_bytes=0)


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_engine("and_popc"), AndPopcEngine)
        assert isinstance(make_engine("xor_popc"), XorPopcEngine)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_engine("fp16")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            make_engine("and_popc", mode="cuda")

    def test_gemm_shape_ops(self):
        assert GemmShape(m=2, n=3, k_bits=10).fused_ops == 120
