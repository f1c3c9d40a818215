"""End-to-end fuzzing: the tensor pipeline vs brute force under random
datasets and configurations.

Hypothesis drives dataset shape, class balance, degenerate columns, block
size, engine, device count and ``top_k``; the full search must agree with
a brute-force oracle every time.  This is the single highest-leverage
invariant in the repository — every layer (encoding, combine, GEMM,
translation, completion, scoring, masking, pruning, scheduling, reduction)
sits between the two sides.

Every draw compares the whole ranked top-k against
:func:`tests.helpers.brute_force_topk`.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import Dataset
from repro.device.specs import A100_PCIE, A100_SXM4, TITAN_RTX
from tests.helpers import assert_matches_oracle, brute_force_topk

configs = st.fixed_dictionaries(
    {
        "n_snps": st.integers(4, 11),
        "n_samples": st.integers(24, 120),
        "case_fraction": st.floats(0.2, 0.8),
        # Optionally shrink one class to a single sample.
        "singleton": st.one_of(st.none(), st.sampled_from(["cases", "controls"])),
        # Optionally make one SNP monomorphic (genotype 0, 1 or 2).
        "monomorphic": st.one_of(st.none(), st.integers(0, 2)),
        # Optionally copy one SNP's genotypes into another: exact ties.
        "duplicate": st.booleans(),
        "block_size": st.integers(2, 6),
        "spec": st.sampled_from([TITAN_RTX, A100_PCIE, A100_SXM4]),
        "n_gpus": st.integers(1, 3),
        "top_k_frac": st.floats(0.0, 1.0),
        "seed": st.integers(0, 2**31),
    }
)


def _dataset(cfg) -> Dataset:
    rng = np.random.default_rng(cfg["seed"])
    m, n = cfg["n_snps"], cfg["n_samples"]
    genotypes = rng.integers(0, 3, (m, n), dtype=np.int8)
    if cfg["singleton"] is None:
        n_cases = max(1, min(n - 1, int(n * cfg["case_fraction"])))
    else:
        n_cases = 1 if cfg["singleton"] == "cases" else n - 1
    phenotypes = np.zeros(n, dtype=bool)
    phenotypes[:n_cases] = True
    rng.shuffle(phenotypes)
    snps = rng.permutation(m)
    if cfg["monomorphic"] is not None:
        genotypes[snps[0]] = cfg["monomorphic"]
    if cfg["duplicate"]:
        genotypes[snps[1]] = genotypes[snps[2]]
    return Dataset(genotypes=genotypes, phenotypes=phenotypes)


def _tie_runs(scores: list[float]) -> list[tuple[int, int]]:
    """``[start, stop)`` spans of consecutive scores equal within 1e-9."""
    runs, start = [], 0
    for i in range(1, len(scores) + 1):
        if i == len(scores) or (
            scores[i] - scores[i - 1] > 1e-9 * max(1.0, abs(scores[i - 1]))
        ):
            runs.append((start, i))
            start = i
    return runs


def _assert_topk_matches_oracle(result, ds, k):
    """Scores position by position at ``rel=1e-9``; quads exactly, except
    inside a run of oracle scores tied within 1e-9, where float summation
    order may legitimately flip the packed-index tie-break and the quads
    are compared as a set (a run cut by ``k`` contributes a subset)."""
    oracle = brute_force_topk(ds, comb(ds.n_snps, 4))
    got = result.top_solutions
    assert len(got) == min(k, len(oracle))
    assert [s.score for s in got] == pytest.approx(
        [s.score for s in oracle[: len(got)]], rel=1e-9
    )
    for start, stop in _tie_runs([s.score for s in oracle]):
        if start >= len(got):
            break
        got_quads = [s.quad for s in got[start:stop]]
        run_quads = [s.quad for s in oracle[start:stop]]
        if stop - start == 1:
            assert got_quads == run_quads
        else:
            assert set(got_quads) <= set(run_quads)


@settings(max_examples=25, deadline=None)
@given(configs)
def test_search_always_matches_brute_force(cfg):
    ds = _dataset(cfg)
    n_quads = comb(cfg["n_snps"], 4)
    top_k = 1 + round(cfg["top_k_frac"] * (n_quads + 1))  # 1 .. C(M,4)+2
    config = SearchConfig(block_size=cfg["block_size"], top_k=top_k)
    result = Epi4TensorSearch(
        ds, config, spec=cfg["spec"], n_gpus=cfg["n_gpus"]
    ).run()
    _assert_topk_matches_oracle(result, ds, top_k)


def test_duplicated_snp_ties_rank_in_packed_index_order():
    # SNP 3 copies SNP 2, so swapping 2 for 3 in a quad that holds only one
    # of them leaves its contingency tables -- cell order included --
    # unchanged: the two quads tie exactly, and the reducer must rank them
    # by packed quad index (docs/algorithm.md, §6).
    rng = np.random.default_rng(23)
    genotypes = rng.integers(0, 3, (9, 90), dtype=np.int8)
    genotypes[3] = genotypes[2]
    phenotypes = rng.random(90) < 0.5
    ds = Dataset(genotypes=genotypes, phenotypes=phenotypes)
    k = comb(9, 4)
    result = Epi4TensorSearch(ds, SearchConfig(block_size=4, top_k=k)).run()
    got = result.top_solutions
    assert_matches_oracle(result, brute_force_topk(ds, k))
    rank = {s.quad: i for i, s in enumerate(got)}
    scores = {s.quad: s.score for s in got}
    twins = [
        (q, tuple(3 if i == 2 else i for i in q))
        for q in rank
        if 2 in q and 3 not in q
    ]
    assert len(twins) == comb(7, 3)
    for low, high in twins:
        assert scores[low] == scores[high]
        assert rank[low] < rank[high]
    assert got == sorted(got)
