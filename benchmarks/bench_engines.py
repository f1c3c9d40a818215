"""Microbenchmarks of the binary tensor-GEMM engines.

Measures the two execution paths (BLAS-dense vs packed popcount) and the
two hardware semantics (AND+POPC vs XOR+POPC + translation) on GEMM shapes
matching one evaluation round's 4-way kernel.
"""

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.tensor import make_engine

#: Rows = 4*B^2 with B=8, K = 4096 samples: one small round's GEMM.
ROWS, K_BITS = 4 * 8 * 8, 4096


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    a = BitMatrix.from_bool(rng.random((ROWS, K_BITS)) < 0.45)
    b = BitMatrix.from_bool(rng.random((ROWS, K_BITS)) < 0.45)
    return a, b


@pytest.mark.parametrize("kind", ["and_popc", "xor_popc"])
@pytest.mark.parametrize("mode", ["dense", "packed"])
def test_gemm_engine(benchmark, operands, kind, mode):
    a, b = operands
    engine = make_engine(kind, mode=mode)
    out = benchmark(engine.matmul_popcount, a, b)
    # Throughput context: fused ops of this GEMM (no timing stats under
    # --benchmark-disable).
    if benchmark.stats is not None:
        fused = 2 * ROWS * ROWS * K_BITS
        print(
            f"\n{kind}/{mode}: {fused / benchmark.stats['mean'] / 1e9:.2f} "
            "G fused-ops/s (simulator)"
        )
    assert out.shape == (ROWS, ROWS)


def test_xor_translation_overhead(benchmark, operands):
    """§3.4 claim: the XOR->AND translation adds no significant overhead.
    Here: translation cost relative to the raw GEMM is small."""
    a, b = operands
    engine = make_engine("xor_popc", mode="dense")
    xor_counts = engine.raw_xor_popcount(a, b)
    a_pop, b_pop = a.row_popcounts(), b.row_popcounts()

    from repro.tensor import xor_to_and_counts

    benchmark(xor_to_and_counts, xor_counts, a_pop, b_pop)
