"""Admissible lower bounds on the K2 score from tensor corner counts.

The K2 score of a completed 81-cell table is a sum of per-cell terms

    f(a, b) = lgamma(a + b + 2) - lgamma(b + 1) - lgamma(a + 1)
            = log((a + b + 1)! / (a! b!)),

where ``a``/``b`` are the cell's control/case counts.  Every term is
non-negative and monotone in both counts, which yields an *admissible*
(never-overestimating) lower bound on the full score from only the counts
the tensor GEMMs already materialized — before any inclusion–exclusion
completion runs.  Because K2 is a min-search, any quad whose lower bound
exceeds the current top-k threshold provably cannot enter the final top-k,
so the branch-and-bound gate in :func:`repro.core.apply_score.score_round`
can drop it with **bit-identical** results.

Two inequalities make the bound (proofs in :class:`K2BoundKernel`):

1. **Known cells** contribute their exact term ``f(a, b)``.
2. **Unknown cells** with class-wise remainders ``(A, B)`` (the samples not
   in any known cell) contribute at least ``log(A + 1) + log(B + 1)``.

The gate uses the *48-cell* bound: every cell with at most one genotype
index equal to 2 is derivable from the fourth-order corner block (16 cells,
all indices in {0, 1}) plus the four third-order corner slices by
subtraction — e.g. the ``g_z = 2`` fiber is ``corner3_wxy - sum_gz corner4``.
Those 48 cells typically hold the bulk of the samples, so the two-term
remainder gives up little; on the reference bench configuration the bound
prunes ~90% of quads at the final top-10 threshold.

The bound costs real time.  On the ``null-m64`` workload of
``benchmarks/e2e`` (M=64, N=1024, B=8, k=10; 2-vCPU Xeon VM) it prunes
53% of quads, and even the final top-10 threshold would prune only 56%.
The former 4-index fancy-gather formulation spent 2.91 s there, 41% of
the traced wall; the flat gather of :meth:`K2BoundKernel.quad_bounds`
spends 1.14 s, 21%, with bit-identical bounds.
"""

from __future__ import annotations

import numpy as np

from repro.scoring.lgamma_table import LgammaTable

#: Absolute slack subtracted from every prune comparison: a position is
#: pruned only when ``bound > threshold + PRUNE_SLACK``.  The bound is
#: *mathematically* admissible, but it sums table lookups in a different
#: order than the exact scorer, so at mathematical-equality corner cases
#: (empty remainders) floating-point rounding could push the computed
#: bound a few ULPs past the computed exact score.  The slack dwarfs any
#: accumulated rounding (< 1e-9 for realistic table sizes) while being
#: negligible against real bound deficits (O(1) score units), so it costs
#: essentially no pruning power and guarantees ties are never pruned.
PRUNE_SLACK = 1e-6


class K2BoundKernel:
    """Vectorized admissible K2 lower bounds from corner counts.

    Shares the search's :class:`~repro.scoring.lgamma_table.LgammaTable`
    through the same pre-shifted read-only views the staged scorer uses
    (``plus2[n] == lgamma(n + 2)``, ``plus1[n] == lgamma(n + 1)``), so
    evaluating a bound is pure fancy-gather arithmetic with no new tables.

    Admissibility (``bound <= exact`` for every valid table):

    * For a known cell, the bound adds the cell's exact term — and
      ``f(a, b) = log((a+b+1)!/(a! b!)) >= log((a+1)(b+1))`` since
      ``(a+b+1)!/(a! b!) = (a+b+1) * C(a+b, a) >= (a+1)(b+1)`` (expand
      ``C(a+b, a) >= 1`` and check ``a b`` cross terms; equality iff
      ``a == 0`` or ``b == 0``).
    * For the unknown cells with per-cell counts ``(a_i, b_i)`` summing to
      the remainders ``(A, B)``:
      ``sum_i f(a_i, b_i) >= sum_i log((a_i+1)(b_i+1))
      >= log((1 + sum a_i)(1 + sum b_i)) = log(A+1) + log(B+1)``,
      the second step by ``prod (1 + a_i) >= 1 + sum a_i``.

    Every method is *fail-safe* on implausible counts (negative fibers or
    totals beyond the lgamma table): it declines to bound rather than
    fancy-gather garbage, so injected tensor corruption (a negative count
    planted in ``corner4``) flows to the normal validation / degraded
    re-execution path instead of causing a wrong prune.
    """

    def __init__(
        self, table: LgammaTable, n_controls: int, n_cases: int
    ) -> None:
        self._table = table
        #: ``lgamma(n + 2)`` at index ``n``.
        self._plus2 = table.shifted(2)
        #: ``lgamma(n + 1)`` at index ``n``.
        self._plus1 = table.shifted(1)
        #: Largest per-cell total the views can serve.
        self.max_total = table.max_argument - 2
        self.n_controls = int(n_controls)
        self.n_cases = int(n_cases)

    @property
    def table(self) -> LgammaTable:
        return self._table

    def _cell_terms(self, r0: np.ndarray, r1: np.ndarray) -> np.ndarray:
        """Exact per-cell K2 terms ``f(r0, r1)`` (same lookups as the
        staged scorer; trailing axes preserved)."""
        return self._plus2[r0 + r1] - self._plus1[r1] - self._plus1[r0]

    def _log1(self, count: np.ndarray) -> np.ndarray:
        """``log(count + 1)`` via the shifted views:
        ``lgamma(n + 2) - lgamma(n + 1) == log(n + 1)``."""
        return self._plus2[count] - self._plus1[count]

    # ------------------------------------------------------------------ #

    def _remainders(
        self, cells0: np.ndarray, cells1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Class remainders ``(rest0, rest1)`` of the cell-major
        known-cell counts, or ``None`` if any count, remainder or cell
        total is implausible (see class docstring)."""
        rest0 = self.n_controls - cells0.sum(axis=0)
        rest1 = self.n_cases - cells1.sum(axis=0)
        if cells0.size and (
            min(int(cells0.min()), int(cells1.min())) < 0
            or min(int(rest0.min()), int(rest1.min())) < 0
            or int((cells0 + cells1).max()) > self.max_total
        ):
            return None
        return rest0, rest1

    def quad_bounds(
        self, operands, w, x, y, z
    ) -> np.ndarray | None:
        """48-cell lower bounds for the selected grid positions.

        Each position becomes one flat row index into ``(B^4, 16)`` /
        ``(B^3, 8)`` views of the corner blocks.  The gathered counts are
        laid out cell-major, ``(48, V)`` per class, so each
        one-index-is-2 fiber is its third-order corner minus the sum of
        two contiguous halves of the corner rows.  Cells are ordered as
        the 16 corners over ``(g_w, g_x, g_y, g_z)``, then the ``g_w``,
        ``g_x``, ``g_y`` and ``g_z = 2`` fibers; the per-cell terms are
        transposed back to C-ordered ``(V, 48)`` rows before the row sum,
        so every bound adds the same floats in the same order.

        Args:
            operands: a :class:`~repro.core.apply_score.RoundOperands`.
            w, x, y, z: equal-length integer index arrays selecting
                positions of the round's ``(B, B, B, B)`` grid.

        Returns:
            ``(V,)`` float64 bounds, each ``<= `` the exact K2 score of
            the corresponding completed table (up to summation-order
            rounding, absorbed by :data:`PRUNE_SLACK`) — or ``None`` when
            the counts are implausible and no safe bound exists.
        """
        b = operands.block_size
        xyz = (x * b + y) * b + z
        # The fiber with genotype index k equal to 2, k over (w, x, y, z):
        # the 3-way corner without that SNP marginalizes it over all 3
        # genotypes, so the fiber is that corner minus the sum over g_k of
        # the 4-way corners.
        fibers = (
            (operands.corner3_xyz, xyz),
            (operands.corner3_wyz, (w * b + y) * b + z),
            (operands.corner3_wxz, (w * b + x) * b + z),
            (operands.corner3_wxy, (w * b + x) * b + y),
        )
        rows4 = w * b**3 + xyz
        n = rows4.size
        cells = np.empty((2, 48, n), dtype=np.int64)
        for cls in (0, 1):
            corners = cells[cls, :16]
            corners[...] = np.take(
                operands.corner4[cls].reshape(-1, 16), rows4, axis=0
            ).T
            for k, (corner3, rows3) in enumerate(fibers):
                # Axis g_k splits the 16 corner rows into 2^k blocks, each
                # two contiguous halves (g_k = 0, g_k = 1).
                halves = corners.reshape(2**k, 2, 8 >> k, n)
                fiber = cells[cls, 16 + 8 * k : 24 + 8 * k]
                fiber[...] = np.take(
                    corner3[cls].reshape(-1, 8), rows3, axis=0
                ).T
                fiber -= (halves[:, 0] + halves[:, 1]).reshape(8, n)
        rests = self._remainders(cells[0], cells[1])
        if rests is None:
            return None
        terms = np.ascontiguousarray(self._cell_terms(cells[0], cells[1]).T)
        return (
            terms.sum(axis=1) + self._log1(rests[0]) + self._log1(rests[1])
        )

    def __repr__(self) -> str:
        return (
            f"K2BoundKernel(max_total={self.max_total}, "
            f"n_controls={self.n_controls}, n_cases={self.n_cases})"
        )
