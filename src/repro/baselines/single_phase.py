"""Single-phase third-order precompute baseline (the [15] strategy).

The SYCL state of the art precomputes contingency tables for **all**
``C(M, 3)`` third-order combinations at application start and derives
fourth-order tables from them during the search.  That costs

    2 classes * C(M, 3) * 27 cells * 4 bytes

of device memory — fine at 250 SNPs (~21 MB) but ~309 GB at 2048 SNPs,
which is the limitation Epi4Tensor's three-phase scheme removes (§3.3, §5).
This module reproduces both the strategy and the blow-up: construction
refuses to start if the table store would exceed the memory budget.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from repro.contingency.brute_force import contingency_table
from repro.core.solution import Solution
from repro.datasets.dataset import Dataset
from repro.scoring.base import ScoreFunction
from repro.scoring.k2 import K2Score


def single_phase_memory_bytes(n_snps: int) -> int:
    """Device memory the single-phase third-order store needs, in bytes."""
    if n_snps < 3:
        raise ValueError(f"need at least 3 SNPs, got {n_snps}")
    return 2 * comb(n_snps, 3) * 27 * 4


def _triplet_rank(a: int, b: int, c: int) -> int:
    """Colex rank of a sorted triplet — index into the flat table store."""
    return comb(c, 3) + comb(b, 2) + comb(a, 1)


class SinglePhaseBaseline:
    """Fourth-order search over a single-phase all-triplets table store.

    Args:
        score: association score (K2 by default).
        memory_limit_bytes: simulated device memory; construction raises
            ``MemoryError`` when the triplet store would not fit — exactly
            the failure mode the paper describes for [15] on large ``M``.
    """

    name = "single_phase"

    def __init__(
        self,
        score: ScoreFunction | None = None,
        memory_limit_bytes: int = 2 * 1024**3,
    ) -> None:
        self._score = score or K2Score()
        self.memory_limit_bytes = memory_limit_bytes

    # ------------------------------------------------------------------ #

    def build_triplet_store(self, dataset: Dataset) -> np.ndarray:
        """Phase 1: tables for all ``C(M, 3)`` triplets, ``(2, T, 27)`` int32.

        Raises:
            MemoryError: if the store exceeds ``memory_limit_bytes``.
        """
        m = dataset.n_snps
        need = single_phase_memory_bytes(m)
        if need > self.memory_limit_bytes:
            raise MemoryError(
                f"single-phase third-order store needs {need / 1e9:.2f} GB for "
                f"M={m} SNPs, exceeding the {self.memory_limit_bytes / 1e9:.2f} GB "
                "device budget (the limitation Epi4Tensor's multi-phase "
                "construction removes)"
            )
        store = np.empty((2, comb(m, 3), 27), dtype=np.int32)
        genotypes = [dataset.class_genotypes(cls) for cls in (0, 1)]
        # The store is indexed in colexicographic order (`_triplet_rank`),
        # a perfect rank for sorted triplets that needs no lookup table.
        for a, b, c in combinations(range(m), 3):
            rank = _triplet_rank(a, b, c)
            for cls in (0, 1):
                store[cls, rank] = contingency_table(
                    genotypes[cls][[a, b, c]]
                ).reshape(27)
        return store

    def search(self, dataset: Dataset) -> Solution:
        """Phase 2: fourth-order search deriving cells from the store.

        The 16-count corner per quad is still counted directly (as in [15],
        bitwise on device); the remaining 65 cells come from the four
        triplet tables via inclusion-exclusion.
        """
        if dataset.n_snps < 4:
            raise ValueError(f"need at least 4 SNPs, got {dataset.n_snps}")
        from repro.contingency.complete import complete_quad
        from repro.datasets.encoding import encode_class
        from repro.tensor.and_popc import dense_dot_counts

        store = self.build_triplet_store(dataset)
        planes = [
            encode_class(dataset.class_genotypes(cls)) for cls in (0, 1)
        ]
        best = Solution.worst()
        for quad in combinations(range(dataset.n_snps), 4):
            w, x, y, z = quad
            tables = []
            for cls in (0, 1):
                rows = planes[cls].data
                wx = BitRowsPair(rows, w, x)
                yz = BitRowsPair(rows, y, z)
                corner = dense_dot_counts(
                    wx.as_bitmatrix(planes[cls].n_bits),
                    yz.as_bitmatrix(planes[cls].n_bits),
                ).reshape(2, 2, 2, 2)
                t = store[cls]
                tables.append(
                    complete_quad(
                        corner,
                        t[_triplet_rank(w, x, y)].reshape(3, 3, 3),
                        t[_triplet_rank(w, x, z)].reshape(3, 3, 3),
                        t[_triplet_rank(w, y, z)].reshape(3, 3, 3),
                        t[_triplet_rank(x, y, z)].reshape(3, 3, 3),
                    )
                )
            score = float(self._score(tables[0], tables[1], order=4))
            best = min(best, Solution.from_quad(quad, score))
        return best


class BitRowsPair:
    """Four AND-combined bit-plane rows for one SNP pair (helper)."""

    def __init__(self, rows: np.ndarray, a: int, b: int) -> None:
        first = rows[2 * a : 2 * a + 2]
        second = rows[2 * b : 2 * b + 2]
        self.data = (first[:, None, :] & second[None, :, :]).reshape(4, -1)

    def as_bitmatrix(self, n_bits: int):
        from repro.bitops.bitmatrix import BitMatrix

        return BitMatrix(data=self.data, n_bits=n_bits)
