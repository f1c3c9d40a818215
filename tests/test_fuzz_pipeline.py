"""End-to-end fuzzing: the tensor pipeline vs brute force under random
datasets and configurations.

Hypothesis drives dataset shape, class balance, block size, engine, device
count and score; the full search must agree with the dense oracle every
time.  This is the single highest-leverage invariant in the repository —
every layer (encoding, combine, GEMM, translation, completion, scoring,
masking, scheduling, reduction) sits between the two sides.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contingency import contingency_tables_by_class
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import Dataset
from repro.device.specs import A100_PCIE, A100_SXM4, TITAN_RTX
from repro.scoring import make_score
from repro.scoring.base import normalized_for_minimization

configs = st.fixed_dictionaries(
    {
        "n_snps": st.integers(5, 11),
        "n_samples": st.integers(24, 120),
        "case_fraction": st.floats(0.2, 0.8),
        "block_size": st.integers(2, 6),
        "spec": st.sampled_from([TITAN_RTX, A100_PCIE, A100_SXM4]),
        "n_gpus": st.integers(1, 3),
        "score": st.sampled_from(["k2", "gtest"]),
        "seed": st.integers(0, 2**31),
    }
)


def _brute_best(ds, score_name):
    from itertools import combinations

    fn = normalized_for_minimization(make_score(score_name))
    best_score, best_quad = np.inf, None
    for quad in combinations(range(ds.n_snps), 4):
        t0, t1 = contingency_tables_by_class(ds, quad)
        s = float(fn(t0, t1, order=4))
        if s < best_score:
            best_score, best_quad = s, quad
    return best_quad, best_score


@settings(max_examples=25, deadline=None)
@given(configs)
def test_search_always_matches_brute_force(cfg):
    rng = np.random.default_rng(cfg["seed"])
    genotypes = rng.integers(0, 3, (cfg["n_snps"], cfg["n_samples"]), dtype=np.int8)
    n_cases = max(1, min(cfg["n_samples"] - 1,
                         int(cfg["n_samples"] * cfg["case_fraction"])))
    phenotypes = np.zeros(cfg["n_samples"], dtype=bool)
    phenotypes[:n_cases] = True
    rng.shuffle(phenotypes)
    ds = Dataset(genotypes=genotypes, phenotypes=phenotypes)

    config = SearchConfig(block_size=cfg["block_size"], score=cfg["score"])
    result = Epi4TensorSearch(
        ds, config, spec=cfg["spec"], n_gpus=cfg["n_gpus"]
    ).run()
    quad, score = _brute_best(ds, cfg["score"])
    # Degenerate datasets can tie many quads to the same score, and float
    # summation order may then flip the tie-break between implementations;
    # the correct invariant is score-optimality of the returned quad.
    fn = normalized_for_minimization(make_score(cfg["score"]))
    t0, t1 = contingency_tables_by_class(ds, result.best_quad)
    direct = float(fn(t0, t1, order=4))
    tol = 1e-9 * max(1.0, abs(score))
    assert direct <= score + tol
    assert result.best_score == pytest.approx(direct, rel=1e-9, abs=1e-9)
    if direct < score - tol:  # pragma: no cover - would mean brute force lost
        raise AssertionError("search found a better quad than brute force?!")
