"""Microbenchmarks of the scoring subsystem.

The paper's argument (§2) that the statistical test does not dominate cost
rests on its sample-count-invariant evaluation; here we measure K2 on a
round-sized batch of 81-cell tables, plus the lgamma-LUT speedup over
direct ``gammaln`` evaluation (§3.5).
"""

import numpy as np
import pytest
from scipy.special import gammaln

from repro.scoring import K2Score, LgammaTable

BATCH = 8 * 8 * 8 * 8  # one B=8 round's quads


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(2)
    t0 = rng.integers(0, 40, (BATCH, 3, 3, 3, 3))
    t1 = rng.integers(0, 40, (BATCH, 3, 3, 3, 3))
    return t0, t1


def test_k2_batch(benchmark, tables):
    t0, t1 = tables
    out = benchmark(K2Score(), t0, t1, 4)
    assert out.shape == (BATCH,)


def test_lgamma_lut_vs_gammaln(benchmark, tables):
    t0, t1 = tables
    args = (t0 + t1 + 2).ravel()
    table = LgammaTable(int(args.max()))
    lut = benchmark(table, args)
    np.testing.assert_allclose(lut, gammaln(args))


def test_gammaln_direct(benchmark, tables):
    t0, t1 = tables
    args = (t0 + t1 + 2).ravel().astype(np.float64)
    benchmark(gammaln, args)
