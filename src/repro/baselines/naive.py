"""Dense-histogram baseline: the clearest possible correct implementation.

For every 4-combination, the joint genotype of each sample is computed as a
base-3 code and histogrammed.  ``O(C(M,4) * N)`` with large constants — it
exists as the readability-first oracle and the slowest rung of the Table 2
performance ladder.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.contingency.brute_force import contingency_table
from repro.core.solution import Solution
from repro.datasets.dataset import Dataset
from repro.scoring.base import ScoreFunction
from repro.scoring.k2 import K2Score


class NaiveBaseline:
    """Dense per-quad histogram search."""

    name = "naive"

    def __init__(self, score: ScoreFunction | None = None) -> None:
        self._score = score or K2Score()

    def search(self, dataset: Dataset) -> Solution:
        """Exhaustively evaluate every quad; returns the best solution."""
        if dataset.n_snps < 4:
            raise ValueError(f"need at least 4 SNPs, got {dataset.n_snps}")
        genotypes = [dataset.class_genotypes(cls) for cls in (0, 1)]
        best = Solution.worst()
        for quad in combinations(range(dataset.n_snps), 4):
            idx = list(quad)
            t0 = contingency_table(genotypes[0][idx])
            t1 = contingency_table(genotypes[1][idx])
            score = float(self._score(t0, t1, order=4))
            best = min(best, Solution.from_quad(quad, score))
        return best

    def quads_per_second(self, dataset: Dataset, n_quads: int = 200) -> float:
        """Throughput probe: quads evaluated per second (first ``n_quads``)."""
        import time

        genotypes = [dataset.class_genotypes(cls) for cls in (0, 1)]
        quads = []
        for i, quad in enumerate(combinations(range(dataset.n_snps), 4)):
            if i >= n_quads:
                break
            quads.append(quad)
        start = time.perf_counter()
        for quad in quads:
            idx = list(quad)
            t0 = contingency_table(genotypes[0][idx])
            t1 = contingency_table(genotypes[1][idx])
            self._score(t0, t1, order=4)
        elapsed = time.perf_counter() - start
        return len(quads) / elapsed if elapsed > 0 else float("inf")
