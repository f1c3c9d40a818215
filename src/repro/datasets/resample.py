"""Sample resampling: pilot subsets and bootstrap stability analysis.

Two practical companions to an exhaustive search:

- :func:`subsample` draws a smaller stratified dataset for pilot runs —
  the paper's throughput scales with ``N``, so a 10x-smaller pilot bounds
  a full run's cost while preserving class balance.
- :func:`bootstrap_best_quad` measures how *stable* a detected quad is:
  the search is repeated on bootstrap resamples of the samples, and the
  fraction of resamples in which the same quad wins is its stability
  (fragile winners are one genotyping artifact away from disappearing).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.datasets.dataset import Dataset


def subsample(
    dataset: Dataset,
    n_samples: int,
    *,
    stratified: bool = True,
    seed: int | None = None,
) -> Dataset:
    """Draw a random sample subset (without replacement).

    Args:
        dataset: source dataset.
        n_samples: target size (must not exceed the source).
        stratified: preserve the case/control proportion (on by default —
            unstratified subsampling of unbalanced studies silently skews
            the score's null).
        seed: RNG seed.

    Returns:
        A new :class:`Dataset` over the selected columns.
    """
    if not 2 <= n_samples <= dataset.n_samples:
        raise ValueError(
            f"n_samples must be in [2, {dataset.n_samples}], got {n_samples}"
        )
    rng = np.random.default_rng(seed)
    if stratified:
        cases = np.flatnonzero(dataset.phenotypes)
        controls = np.flatnonzero(~dataset.phenotypes)
        n_cases = int(round(n_samples * cases.size / dataset.n_samples))
        n_cases = min(max(n_cases, 1), n_samples - 1)
        chosen = np.concatenate(
            [
                rng.choice(cases, size=n_cases, replace=False),
                rng.choice(controls, size=n_samples - n_cases, replace=False),
            ]
        )
    else:
        chosen = rng.choice(dataset.n_samples, size=n_samples, replace=False)
    chosen.sort()
    return Dataset(
        genotypes=dataset.genotypes[:, chosen].copy(),
        phenotypes=dataset.phenotypes[chosen].copy(),
        snp_names=dataset.snp_names,
    )


@dataclass(frozen=True)
class BootstrapResult:
    """Outcome of :func:`bootstrap_best_quad`.

    Attributes:
        observed_quad: winner on the original dataset.
        stability: fraction of resamples where ``observed_quad`` won.
        winner_counts: win counts per quad across resamples.
    """

    observed_quad: tuple[int, int, int, int]
    stability: float
    winner_counts: dict[tuple[int, int, int, int], int]


def bootstrap_best_quad(
    dataset: Dataset,
    *,
    n_bootstrap: int = 20,
    block_size: int = 8,
    seed: int | None = None,
) -> BootstrapResult:
    """Bootstrap stability of the best quad.

    Each replicate resamples the *samples* with replacement (class labels
    travel with their columns) and reruns the full search.

    Args:
        dataset: the dataset.
        n_bootstrap: number of resamples.
        block_size: forwarded to the search.
        seed: RNG seed.
    """
    from repro.core.search import Epi4TensorSearch, SearchConfig

    if n_bootstrap < 1:
        raise ValueError(f"n_bootstrap must be >= 1, got {n_bootstrap}")
    config = SearchConfig(block_size=block_size)
    observed = Epi4TensorSearch(dataset, config).run().best_quad
    rng = np.random.default_rng(seed)
    counts: Counter[tuple[int, int, int, int]] = Counter()
    for _ in range(n_bootstrap):
        idx = rng.integers(0, dataset.n_samples, size=dataset.n_samples)
        # Bootstrap must keep both classes non-empty for the score to exist.
        if dataset.phenotypes[idx].all() or not dataset.phenotypes[idx].any():
            idx[0] = int(np.flatnonzero(~dataset.phenotypes)[0])
            idx[1] = int(np.flatnonzero(dataset.phenotypes)[0])
        replicate = Dataset(
            genotypes=dataset.genotypes[:, idx].copy(),
            phenotypes=dataset.phenotypes[idx].copy(),
            snp_names=dataset.snp_names,
        )
        counts[Epi4TensorSearch(replicate, config).run().best_quad] += 1
    return BootstrapResult(
        observed_quad=observed,
        stability=counts[observed] / n_bootstrap,
        winner_counts=dict(counts),
    )
