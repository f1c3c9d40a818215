"""The Bayesian K2 score (paper §2).

For a case-control dataset the K2 score of a ``k``-th order table is

    K2 = sum_i [ log((r_i + 1)!) - log(r_i1!) - log(r_i0!) ]
       = sum_i [ lgamma(r_i + 2) - lgamma(r_i1 + 1) - lgamma(r_i0 + 1) ],

where ``r_ij`` is the count of genotype cell ``i`` in phenotype class ``j``
and ``r_i = r_i0 + r_i1``.  This is the negative log of the K2
(Cooper-Herskovits) marginal likelihood up to a constant; **lower scores
mean stronger association**.  Following §3.5, the log-factorials are mapped
to the gamma function and served from a precomputed lookup table.
"""

from __future__ import annotations

import numpy as np

from repro.scoring.base import ScoreFunction
from repro.scoring.lgamma_table import LgammaTable
from repro.scoring.workspace import CANONICAL_ROWS, N_CELLS, K2Workspace


class StagedK2Kernel:
    """Fused K2 evaluation over flat int64 cell batches (paper §3.5).

    Instead of materializing the three float intermediates
    ``lgamma(total + 2)``, ``lgamma(r1 + 1)``, ``lgamma(r0 + 1)`` through
    explicit ``n + k`` index arithmetic, the kernel pre-shifts the lgamma
    table into two read-only views — ``plus2[n] == lgamma(n + 2)`` and
    ``plus1[n] == lgamma(n + 1)`` — and gathers them *directly* on the raw
    count arrays.  The float lookups, the elementwise ``a - b - c`` order
    and the trailing-axis ``sum`` are exactly those of
    :meth:`K2Score.__call__`, so results are bit-identical; only the integer
    index temporaries disappear.
    """

    name = "k2-staged"

    def __init__(self, table: LgammaTable) -> None:
        self._table = table
        #: ``lgamma(n + 2)`` at index ``n``.
        self._plus2 = table.shifted(2)
        #: ``lgamma(n + 1)`` at index ``n``.
        self._plus1 = table.shifted(1)
        #: Largest per-cell *total* count the views can serve.
        self.max_total = table.max_argument - 2

    @property
    def table(self) -> LgammaTable:
        return self._table

    def score_flat(
        self,
        r0_cells: np.ndarray,
        r1_cells: np.ndarray,
        terms: np.ndarray | None = None,
        workspace: K2Workspace | None = None,
    ) -> np.ndarray:
        """Score ``(..., C)`` int64 cell batches; returns ``(...)`` float64.

        The trailing axis holds the ``C = 3^k`` genotype cells of each
        table.  Inputs must already be int64 (the completion pipeline
        produces int64 counts end to end); negative counts or totals beyond
        the table raise ``IndexError`` rather than silently wrapping
        through the fancy gather.

        With ``terms`` and ``workspace`` this is the last step of the
        chunked fourth-order kernel (see :mod:`repro.scoring.workspace`):
        the cells are the cell-major ``(K, V)`` counts of the last ``K``
        of a slot's 81 rows, whose terms are still missing, and ``terms``
        is that slot's ``(81, V)`` term block, its first ``81 - K`` rows
        already filled.  The missing terms are looked up — a count outside
        ``[0, N0] x [0, N1]`` raises ``IndexError`` — and each position's
        81 terms are summed in canonical cell order, adding the same
        floats in the same order as the plain form does on the completed
        ``(V, 81)`` tables.
        """
        if workspace is not None and terms is not None:
            cell_terms = workspace.terms
            if not cell_terms.in_range(r0_cells, r1_cells):
                raise IndexError(
                    "count out of the K2 term range "
                    f"[0, {cell_terms.n_controls}] x [0, {cell_terms.n_cases}]"
                )
            workspace.fill_terms(
                r0_cells, r1_cells, terms[N_CELLS - len(r0_cells) :]
            )
            return workspace.row_sums(terms, CANONICAL_ROWS)
        if r0_cells.shape != r1_cells.shape:
            raise ValueError(
                f"class tables disagree: {r0_cells.shape} vs {r1_cells.shape}"
            )
        total = r0_cells + r1_cells
        if total.size and (
            int(r0_cells.min()) < 0
            or int(r1_cells.min()) < 0
            or int(total.max()) > self.max_total
        ):
            raise IndexError(
                "count out of staged-lgamma range "
                f"[0, {self.max_total}]: r0 min={r0_cells.min()}, "
                f"r1 min={r1_cells.min()}, total max={total.max()}"
            )
        return (
            self._plus2[total] - self._plus1[r1_cells] - self._plus1[r0_cells]
        ).sum(axis=-1)

    def __call__(
        self,
        controls_table: np.ndarray,
        cases_table: np.ndarray,
        order: int | None = None,
    ) -> np.ndarray:
        """Score arbitrary ``(..., 3, ..., 3)`` tables (ScoreFunction shim)."""
        r0 = ScoreFunction._flatten_cells(
            np.asarray(controls_table, dtype=np.int64), order
        )
        r1 = ScoreFunction._flatten_cells(
            np.asarray(cases_table, dtype=np.int64), order
        )
        return self.score_flat(r0, r1)

    def __repr__(self) -> str:
        return f"StagedK2Kernel(max_total={self.max_total})"


class K2Score(ScoreFunction):
    """K2 Bayesian score with an integer-lgamma lookup table.

    Args:
        lgamma_table: a prebuilt table (shared across devices in multi-GPU
            runs, as in the paper).  If omitted, a table is grown lazily to
            fit the largest count seen — convenient for interactive use, but
            search drivers should pass a right-sized table up front.
    """

    name = "k2"

    def __init__(self, lgamma_table: LgammaTable | None = None) -> None:
        self._table = lgamma_table

    def _table_for(self, max_total: int) -> LgammaTable:
        if self._table is None or self._table.max_argument < max_total + 2:
            self._table = LgammaTable(max(max_total + 2, 1))
        return self._table

    def staged_kernel(self, n_samples: int | None = None) -> StagedK2Kernel:
        """Build the fused :class:`StagedK2Kernel` sharing this score's table.

        Args:
            n_samples: when given, guarantees the backing table covers
                ``lgamma(n_samples + 2)`` (growing it if needed) so the hot
                loop never regrows.  When omitted the current table is used
                as-is and must already be right-sized.
        """
        if n_samples is not None:
            table = self._table_for(int(n_samples))
        elif self._table is not None:
            table = self._table
        else:
            raise ValueError(
                "staged_kernel() needs either a prebuilt table or n_samples"
            )
        return StagedK2Kernel(table)

    def __call__(
        self,
        controls_table: np.ndarray,
        cases_table: np.ndarray,
        order: int | None = None,
    ) -> np.ndarray:
        r0 = self._flatten_cells(np.asarray(controls_table, dtype=np.int64), order)
        r1 = self._flatten_cells(np.asarray(cases_table, dtype=np.int64), order)
        if r0.shape != r1.shape:
            raise ValueError(
                f"class tables disagree: {r0.shape} vs {r1.shape}"
            )
        total = r0 + r1
        lg = self._table_for(int(total.max(initial=0)))
        score = (lg(total + 2) - lg(r1 + 1) - lg(r0 + 1)).sum(axis=-1)
        return score
