"""Ampere-style fused AND+POPC engine.

``C[i, j] = POPC(AND(a_i, b_j))`` is literally the dot product of the two
0/1 bit rows, which is why the paper can feed the problem to tensor cores.
The dense path exploits exactly that identity on BLAS; the packed path
evaluates the bitwise definition.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.bitmatrix import BitMatrix
from repro.tensor.engine import BinaryTensorEngine
from repro.tensor.gemm_packed import gemm_and_popcount

#: Largest integer float32 represents exactly; above this the dense path
#: switches to float64 accumulation.
_F32_EXACT_MAX = 1 << 24


def dense_acc_dtype(n_bits: int) -> np.dtype:
    """Accumulator dtype for a dense 0/1 matmul over ``n_bits``-wide rows."""
    return np.dtype(np.float32 if n_bits <= _F32_EXACT_MAX else np.float64)


def dense_dot_counts(a: BitMatrix, b: BitMatrix) -> np.ndarray:
    """AND-popcounts via a dense 0/1 matmul (BLAS-backed).

    Exactness: the accumulator dtype is chosen so every intermediate integer
    (bounded by the bit width ``K``) is exactly representable.
    """
    if a.n_bits != b.n_bits:
        raise ValueError(f"operand bit widths differ: {a.n_bits} vs {b.n_bits}")
    acc_dtype = dense_acc_dtype(a.n_bits)
    dense_a = a.dense_operand(acc_dtype)
    dense_b = b.dense_operand(acc_dtype)
    product = dense_a @ dense_b.T
    return np.rint(product).astype(np.int64)


class AndPopcEngine(BinaryTensorEngine):
    """Binary GEMM engine with native fused AND+POPC (Ampere model)."""

    name = "and_popc"
    native_op = "and"

    def matmul_popcount(self, a: BitMatrix, b: BitMatrix) -> np.ndarray:
        self._record(a, b)
        if self.mode == "dense":
            return dense_dot_counts(a, b)
        return gemm_and_popcount(a, b, block_bytes=self.block_bytes)
