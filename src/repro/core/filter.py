"""Candidate filtering + exhaustive refinement (paper §5).

The paper notes its exhaustive fourth-order core can serve as the *refine*
stage of filter-based approaches (e.g. SNPs are pre-selected by a cheap
heuristic, then exhaustively searched): "the use of a fourth-order
exhaustive method that makes full use of modern GPU architectures ... can
potentially result in achieving increased accuracy, since more SNPs can be
considered during the search performed after filtering."

This module provides that pipeline: a marginal chi-squared filter and a
refinement search over the survivors, with results mapped back to original
SNP indices.
"""

from __future__ import annotations

import numpy as np

from repro.contingency.brute_force import contingency_table
from repro.core.search import SearchConfig, SearchResult, Epi4TensorSearch
from repro.datasets.dataset import Dataset
from repro.device.specs import A100_PCIE, GPUSpec
from repro.scoring.chi2 import ChiSquaredScore


def marginal_chi2_filter(dataset: Dataset, keep: int) -> np.ndarray:
    """Rank SNPs by single-locus chi-squared association; keep the top ones.

    Args:
        dataset: case-control dataset.
        keep: number of SNPs to retain (must be >= 4 so a fourth-order
            refinement is possible).

    Returns:
        Sorted array of the retained original SNP indices.
    """
    if not 4 <= keep <= dataset.n_snps:
        raise ValueError(
            f"keep must be in [4, {dataset.n_snps}], got {keep}"
        )
    chi2 = ChiSquaredScore()
    g0 = dataset.class_genotypes(0)
    g1 = dataset.class_genotypes(1)
    scores = np.array(
        [
            float(chi2(contingency_table(g0[[m]]), contingency_table(g1[[m]])))
            for m in range(dataset.n_snps)
        ]
    )
    return np.sort(np.argsort(scores)[-keep:])


class RefinedResult(SearchResult):
    """A :class:`SearchResult` whose quad is in *original* SNP indices."""


def refine_with_search(
    dataset: Dataset,
    candidate_snps: np.ndarray,
    *,
    block_size: int = 8,
    spec: GPUSpec = A100_PCIE,
    n_gpus: int = 1,
) -> SearchResult:
    """Exhaustive fourth-order search restricted to candidate SNPs.

    Args:
        dataset: the full dataset.
        candidate_snps: original indices to search over (>= 4 distinct).
        block_size / spec / n_gpus: forwarded to the search.

    Returns:
        A :class:`SearchResult` whose ``solution`` is re-expressed in the
        original SNP indices of ``dataset``.
    """
    idx = np.unique(np.asarray(candidate_snps, dtype=np.intp))
    if idx.size < 4:
        raise ValueError(f"need >= 4 candidate SNPs, got {idx.size}")
    if idx.min() < 0 or idx.max() >= dataset.n_snps:
        raise ValueError("candidate indices out of range")
    sub = dataset.subset_snps(idx)
    result = Epi4TensorSearch(
        sub,
        SearchConfig(block_size=block_size),
        spec=spec,
        n_gpus=n_gpus,
    ).run()
    from repro.core.solution import Solution, pack_quad

    def remap(solution: Solution) -> Solution:
        original = tuple(int(idx[i]) for i in solution.quad)
        return Solution(score=solution.score, packed=pack_quad(*original))

    result.solution = remap(result.solution)
    result.top_solutions = [remap(s) for s in result.top_solutions]
    return result
