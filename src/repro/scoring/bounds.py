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
Its gather is not wasted on the survivors, though: in the chunked
scoring kernel (:mod:`repro.scoring.workspace`) the 48 cells and their
terms it leaves in the workspace are the ones the survivors are scored
from.  One traced search there spends 0.47 s of 2.05 s in
:meth:`K2BoundKernel.quad_bounds` (the per-round kernel it replaced
spent 0.76 s of 3.13 s); ``docs/performance_model.md`` §7 and §9 have
the history.
"""

from __future__ import annotations

import numpy as np

from repro.scoring.lgamma_table import LgammaTable
from repro.scoring.workspace import KNOWN_ROWS, N_KNOWN, K2CellTerms, K2Workspace

#: Offsets of the cells within one corner row.
_CELLS16 = np.arange(16)


def _int64_flat(corner: np.ndarray) -> np.ndarray:
    """A corner block as one flat int64 array (a view when it already
    is one)."""
    return np.ascontiguousarray(corner, dtype=np.int64).reshape(-1)


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
    fancy-gather garbage, so a corrupt count (say, a negative entry in
    ``corner4``) is never pruned on: it flows on to scoring, whose range
    check rejects it, instead of causing a wrong prune.
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

    def quad_bounds(
        self, operands, w, x, y, z, workspace: K2Workspace | None = None
    ) -> np.ndarray | None:
        """48-cell lower bounds for the selected grid positions.

        Each position becomes one flat row index into ``(B^4, 16)`` /
        ``(B^3, 8)`` views of the corner blocks, and each cell one flat
        offset, so the counts are gathered cell-major, straight into rows
        ``0..47`` of the workspace's slot 0: the 16 corners over ``(g_w,
        g_x, g_y, g_z)``, then the ``g_w``, ``g_x``, ``g_y`` and ``g_z =
        2`` fibers, each its third-order corner minus two contiguous
        halves of the corner rows.  Their K2 terms go to the slot's term
        rows and are laid out as C-ordered ``(V, 48)`` rows before the
        row sum, so every bound adds the same floats in the same order.

        The counts and terms stay in the workspace: the scoring kernel
        completes and scores the surviving positions from them.  Counts
        are gathered even when the kernel declines.

        Args:
            operands: a :class:`~repro.core.apply_score.RoundOperands`.
            w, x, y, z: equal-length integer index arrays selecting
                positions of the round's ``(B, B, B, B)`` grid (the
                gathers clip, so they must lie inside it).
            workspace: the :class:`~repro.scoring.workspace.K2Workspace`
                to fill, with room for every position; a private one when
                omitted.

        Returns:
            ``(V,)`` float64 bounds, each ``<= `` the exact K2 score of
            the corresponding completed table (up to summation-order
            rounding, absorbed by :data:`PRUNE_SLACK`) — or ``None`` when
            the counts are implausible and no safe bound exists.
        """
        b = operands.block_size
        n = int(np.size(w))
        if workspace is None:
            workspace = K2Workspace(
                K2CellTerms(self._table, self.n_controls, self.n_cases),
                max(n, 1),
            )
        if n == 0:
            return np.zeros(0)
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
        cells, values = workspace.slot(0, n)
        # Cell-major flat offsets into the (B^4, 16) / (B^3, 8) corner
        # rows, so each gather lands in its cell rows with no transpose.
        index = workspace.scratch((16, n))
        np.add((rows4 * 16)[None, :], _CELLS16[:, None], out=index)
        for cls in (0, 1):
            np.take(
                _int64_flat(operands.corner4[cls]), index,
                out=cells[cls, :16], mode="clip",
            )
        for k, (corner3, rows3) in enumerate(fibers):
            index = workspace.scratch((8, n))
            np.add((rows3 * 8)[None, :], _CELLS16[:8, None], out=index)
            for cls in (0, 1):
                fiber = cells[cls, 16 + 8 * k : 24 + 8 * k]
                np.take(_int64_flat(corner3[cls]), index, out=fiber, mode="clip")
                # Axis g_k splits the 16 corner rows into 2^k blocks, each
                # two contiguous halves (g_k = 0, g_k = 1).
                halves = cells[cls, :16].reshape(2**k, 2, 8 >> k, n)
                fiber = fiber.reshape(2**k, 8 >> k, n)
                fiber -= halves[:, 0]
                fiber -= halves[:, 1]
        known = cells[:, :N_KNOWN]
        rest0 = self.n_controls - known[0].sum(axis=0)
        rest1 = self.n_cases - known[1].sum(axis=0)
        if (
            min(int(rest0.min()), int(rest1.min())) < 0
            or not workspace.terms.in_range(known[0], known[1])
        ):
            return None
        workspace.fill_terms(known[0], known[1], values[:N_KNOWN])
        return (
            workspace.row_sums(values, KNOWN_ROWS)
            + self._log1(rest0)
            + self._log1(rest1)
        )

    def __repr__(self) -> str:
        return (
            f"K2BoundKernel(max_total={self.max_total}, "
            f"n_controls={self.n_controls}, n_cases={self.n_cases})"
        )
