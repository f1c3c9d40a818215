"""Permutation-based significance testing for detected interactions.

A raw K2 score has no universal significance scale; epistasis tools
estimate p-values by permuting phenotype labels (which destroys any
genotype-phenotype association while preserving genotype structure) and
comparing the observed statistic against the permutation null.

Two nulls are offered:

- :func:`permutation_pvalue` — per-quad null: how extreme is this quad's
  score for *this* quad under label permutation.  Cheap (the quad's joint
  genotype code is histogrammed per permutation).
- :func:`search_max_statistic_pvalue` — family-wise null: the best score of
  a *full search* per permutation.  Corrects for the multiple testing of
  all ``C(M, 4)`` quads; costs one search per permutation, so it is only
  practical at reduced ``M``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.dataset import Dataset
from repro.scoring.base import ScoreFunction
from repro.scoring.k2 import K2Score


@dataclass(frozen=True)
class PermutationResult:
    """Outcome of a permutation test.

    Attributes:
        observed_score: the statistic on the real labels (lower =
            stronger).
        null_scores: statistic per permutation.
        p_value: ``(1 + #{null <= observed}) / (1 + n_permutations)``
            (the add-one estimator — never exactly zero).
    """

    observed_score: float
    null_scores: np.ndarray
    p_value: float


def _joint_code(dataset: Dataset, snps: tuple[int, ...]) -> np.ndarray:
    """Base-3 joint genotype code per sample for the given SNP tuple."""
    idx = np.asarray(snps, dtype=np.intp)
    return np.ravel_multi_index(
        tuple(dataset.genotypes[i] for i in idx), (3,) * len(snps)
    )


def permutation_pvalue(
    dataset: Dataset,
    snps: tuple[int, ...],
    *,
    n_permutations: int = 1000,
    score: ScoreFunction | None = None,
    seed: int | None = None,
) -> PermutationResult:
    """Per-quad (or any-order tuple) permutation p-value.

    Args:
        dataset: the case-control dataset.
        snps: the SNP tuple whose association is being tested: distinct
            indices in ``[0, dataset.n_snps)``.
        n_permutations: permutation count (p-value resolution is
            ``1 / (n_permutations + 1)``).
        score: association score, lower = stronger (default K2).
        seed: RNG seed.

    Returns:
        A :class:`PermutationResult`.
    """
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    out_of_range = [i for i in snps if not 0 <= i < dataset.n_snps]
    if out_of_range:
        raise ValueError(
            f"snps must lie in [0, {dataset.n_snps}), got {tuple(snps)}"
        )
    if len(set(snps)) != len(snps):
        raise ValueError(f"snps must be distinct, got {snps}")
    order = len(snps)
    score = score or K2Score()
    code = _joint_code(dataset, tuple(snps))
    n_cells = 3**order
    labels = np.asarray(dataset.phenotypes)

    def score_labels(is_case: np.ndarray) -> float:
        t1 = np.bincount(code[is_case], minlength=n_cells)
        t0 = np.bincount(code[~is_case], minlength=n_cells)
        return float(
            score(
                t0.reshape((3,) * order), t1.reshape((3,) * order), order=order
            )
        )

    observed = score_labels(labels)
    rng = np.random.default_rng(seed)
    null = np.empty(n_permutations, dtype=np.float64)
    for i in range(n_permutations):
        null[i] = score_labels(rng.permutation(labels))
    p = (1 + int((null <= observed).sum())) / (1 + n_permutations)
    return PermutationResult(
        observed_score=observed, null_scores=null, p_value=p
    )


def search_max_statistic_pvalue(
    dataset: Dataset,
    *,
    n_permutations: int = 20,
    block_size: int = 8,
    seed: int | None = None,
) -> PermutationResult:
    """Family-wise p-value for the best quad of a full search.

    Runs the full Epi4Tensor search once on the real labels and once per
    permuted label vector; the null is the distribution of the *best* score
    over all quads, which controls the family-wise error of the exhaustive
    scan.  Expensive: one full search per permutation, so keep ``M``
    small.
    """
    from repro.core.search import Epi4TensorSearch, SearchConfig

    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    config = SearchConfig(block_size=block_size)
    observed = Epi4TensorSearch(dataset, config).run().best_score
    rng = np.random.default_rng(seed)
    null = np.empty(n_permutations, dtype=np.float64)
    labels = np.asarray(dataset.phenotypes)
    for i in range(n_permutations):
        permuted = Dataset(
            genotypes=dataset.genotypes.copy(),
            phenotypes=rng.permutation(labels),
            snp_names=dataset.snp_names,
        )
        null[i] = Epi4TensorSearch(permuted, config).run().best_score
    p = (1 + int((null <= observed).sum())) / (1 + n_permutations)
    return PermutationResult(
        observed_score=float(observed), null_scores=null, p_value=p
    )
