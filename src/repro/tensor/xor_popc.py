"""Turing-style fused XOR+POPC engine plus the §3.4 compatibility layer.

Turing tensor cores only fuse XOR with POPC, producing *mismatch* counts.
The paper recovers AND-counts with

    POPC(A AND B) = (POPC(A) + POPC(B) - POPC(A XOR B)) / 2,

reusing per-row popcounts across many GEMMs.  This module implements both
the raw XOR+POPC GEMM (so the translation is exercised on genuine mismatch
counts) and the translation itself.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.bitmatrix import BitMatrix
from repro.tensor.engine import BinaryTensorEngine
from repro.tensor.gemm_packed import gemm_xor_popcount


def xor_to_and_counts(
    xor_counts: np.ndarray, a_popcounts: np.ndarray, b_popcounts: np.ndarray
) -> np.ndarray:
    """Translate XOR-popcounts to AND-popcounts (paper §3.4).

    Args:
        xor_counts: ``(R_a, R_b)`` matrix of ``POPC(a_i XOR b_j)``.
        a_popcounts: ``(R_a,)`` vector of ``POPC(a_i)``.
        b_popcounts: ``(R_b,)`` vector of ``POPC(b_j)``.

    Returns:
        ``(R_a, R_b)`` int64 matrix of ``POPC(a_i AND b_j)``.

    Raises:
        ValueError: if the inputs are inconsistent (the translated counts
            would not be non-negative integers) — a corrupted-popcount guard.
    """
    xor_counts = np.asarray(xor_counts, dtype=np.int64)
    a_pop = np.asarray(a_popcounts, dtype=np.int64)
    b_pop = np.asarray(b_popcounts, dtype=np.int64)
    if xor_counts.shape != (a_pop.shape[0], b_pop.shape[0]):
        raise ValueError(
            f"shape mismatch: xor_counts {xor_counts.shape} vs "
            f"popcounts ({a_pop.shape[0]}, {b_pop.shape[0]})"
        )
    doubled = a_pop[:, None] + b_pop[None, :] - xor_counts
    if doubled.size and ((doubled < 0).any() or (doubled & 1).any()):
        raise ValueError(
            "inconsistent XOR popcounts: POPC(A)+POPC(B)-POPC(A^B) must be "
            "an even non-negative integer"
        )
    return doubled >> 1


class XorPopcEngine(BinaryTensorEngine):
    """Binary GEMM engine with native fused XOR+POPC (Turing model).

    The public :meth:`matmul_popcount` returns AND-counts like every other
    engine, but internally it computes true XOR mismatch counts and runs the
    translation layer, so results *and* code path match the paper's
    Turing configuration.
    """

    name = "xor_popc"
    native_op = "xor"

    def raw_xor_popcount(self, a: BitMatrix, b: BitMatrix) -> np.ndarray:
        """The native hardware output: ``POPC(a_i XOR b_j)`` per row pair."""
        self._record(a, b)
        if self.mode == "dense":
            # POPC(a ^ b) = POPC(a) + POPC(b) - 2 * <a, b>; the dot product is
            # the BLAS stand-in for the tensor cores, the rest is exact integer
            # bookkeeping that reproduces the hardware's output.
            from repro.tensor.and_popc import dense_dot_counts

            dots = dense_dot_counts(a, b)
            return (
                a.row_popcounts()[:, None] + b.row_popcounts()[None, :] - 2 * dots
            )
        return gemm_xor_popcount(a, b, block_bytes=self.block_bytes)

    def matmul_popcount(self, a: BitMatrix, b: BitMatrix) -> np.ndarray:
        xor_counts = self.raw_xor_popcount(a, b)
        return xor_to_and_counts(
            xor_counts, a.row_popcounts(), b.row_popcounts()
        )
