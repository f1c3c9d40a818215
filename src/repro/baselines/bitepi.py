"""BitEpi-style CPU bitwise baseline [2].

BitEpi represents each SNP as **three** bitvectors per phenotype class (one
per genotype — no derivation tricks) and builds each quad's 81-cell table by
AND-ing four bitvectors and popcounting, entirely on CPU.  We reproduce that
cost structure:

- per quad, the ``(w, x)`` and ``(y, z)`` pair planes are AND-combined
  (9 + 9 word-rows), then all 81 cross-ANDs are popcounted;
- pair planes for a fixed ``(w, x)`` are reused across the inner loops,
  mirroring BitEpi's loop nesting.

This is the "multicore CPU, bitwise" rung of Table 2 — orders of magnitude
slower than the tensor pipeline but far faster than the dense baseline.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.bitops.bitmatrix import BitMatrix
from repro.bitops.popcount import popcount_u64
from repro.core.solution import Solution
from repro.datasets.dataset import Dataset
from repro.scoring.base import ScoreFunction
from repro.scoring.k2 import K2Score


def _three_planes(genotypes_class: np.ndarray) -> np.ndarray:
    """Pack ``(M, N_c)`` genotypes into ``(M, 3, W)`` uint64 bit-planes."""
    m, _ = genotypes_class.shape
    planes = np.empty((3 * m, genotypes_class.shape[1]), dtype=np.bool_)
    for g in (0, 1, 2):
        planes[g::3] = genotypes_class == g
    packed = BitMatrix.from_bool(planes)
    return packed.data.reshape(m, 3, packed.n_words)


class BitEpiBaseline:
    """CPU bitwise exhaustive fourth-order search (three planes per SNP)."""

    name = "bitepi"

    def __init__(self, score: ScoreFunction | None = None) -> None:
        self._score = score or K2Score()

    def search(self, dataset: Dataset) -> Solution:
        """Evaluate every quad with bitwise AND+POPC table construction."""
        if dataset.n_snps < 4:
            raise ValueError(f"need at least 4 SNPs, got {dataset.n_snps}")
        planes = [
            _three_planes(dataset.class_genotypes(cls)) for cls in (0, 1)
        ]
        best = Solution.worst()
        m = dataset.n_snps
        for w, x in combinations(range(m), 2):
            # Reused across all (y, z): the 9 (g_w, g_x) AND planes per class.
            wx = [
                (planes[cls][w][:, None, :] & planes[cls][x][None, :, :]).reshape(
                    9, -1
                )
                for cls in (0, 1)
            ]
            for y, z in combinations(range(x + 1, m), 2):
                tables = []
                for cls in (0, 1):
                    yz = (
                        planes[cls][y][:, None, :] & planes[cls][z][None, :, :]
                    ).reshape(9, -1)
                    cross = wx[cls][:, None, :] & yz[None, :, :]
                    counts = popcount_u64(cross).sum(axis=-1)
                    tables.append(counts.reshape(3, 3, 3, 3))
                score = float(self._score(tables[0], tables[1], order=4))
                best = min(best, Solution.from_quad((w, x, y, z), score))
        return best

    def count_table(
        self, dataset: Dataset, quad: tuple[int, int, int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bitwise 81-cell tables for a single quad (test hook)."""
        tables = []
        for cls in (0, 1):
            planes = _three_planes(dataset.class_genotypes(cls))
            w, x, y, z = quad
            wx = (planes[w][:, None, :] & planes[x][None, :, :]).reshape(9, -1)
            yz = (planes[y][:, None, :] & planes[z][None, :, :]).reshape(9, -1)
            cross = wx[:, None, :] & yz[None, :, :]
            tables.append(
                popcount_u64(cross).sum(axis=-1).reshape(3, 3, 3, 3)
            )
        return tables[0], tables[1]
