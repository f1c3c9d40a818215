"""Shared buffers and cell terms of the chunked fourth-order K2 kernel.

:func:`repro.core.apply_score.score_round` scores a round's positions in
fixed-size chunks.  For each chunk the bound, the completion and the K2
sum work in one :class:`K2Workspace`:

* :meth:`K2BoundKernel.quad_bounds
  <repro.scoring.bounds.K2BoundKernel.quad_bounds>` gathers the 48
  *known* cells (at most one ``aa`` index) and their K2 terms into rows
  ``0..47``;
* :func:`~repro.core.apply_score.complete_quad` derives, for the
  surviving positions only, the 33 cells with two or more ``aa`` indices
  into rows ``48..80``;
* :meth:`StagedK2Kernel.score_flat
  <repro.scoring.k2.StagedK2Kernel.score_flat>` fills those 33 terms and
  sums each position's 81 terms in canonical cell order.

Buffers are cell-major, ``(81, capacity)``, so every step is a whole-row
operation over the chunk's positions.  They are allocated once per
workspace and reused by every chunk and round: the working set stays
cache-sized, and the heap is not asked for a cell-sized temporary per
chunk (which it would return to the kernel and fault back in).

The per-cell term ``f(r0, r1) = lgamma(r0 + r1 + 2) - lgamma(r1 + 1) -
lgamma(r0 + 1)`` comes from :class:`K2CellTerms`: one gather from a
per-run ``(N0 + 1) x (N1 + 1)`` table when the table fits
:data:`TERM_TABLE_MAX_BYTES`, else the three lgamma gathers.  Every table
entry is computed by those same three gathers, so both forms return the
same bits.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.scoring.lgamma_table import LgammaTable

#: Largest per-run term table, in bytes.  The table takes ``8 * (N0 + 1)
#: * (N1 + 1)`` bytes: 2.1 MB at N=1024 with balanced classes, but 2.1 GB
#: at N=32768, where the three-gather form is used instead.
TERM_TABLE_MAX_BYTES = 16 * 2**20

#: Positions per chunk of the scoring kernel: the capacity of the
#: workspace each device scores in (about 6 KB per position, so 1024
#: positions fit a 2-4 MB L2 cache).  Chosen by measurement on null-m64;
#: see ``docs/performance_model.md``.
CHUNK_POSITIONS = 1024

#: Cells of a fourth-order table.
N_CELLS = 81
#: Cells with at most one ``aa`` index: the cells the bound gathers.
N_KNOWN = 48


def _layout() -> tuple[np.ndarray, list[tuple]]:
    """Workspace row order and the derivation plan.

    Rows ``0..47`` are the known cells in the bound's order: the 16
    corners over ``(g_w, g_x, g_y, g_z)``, then the ``g_w``, ``g_x``,
    ``g_y`` and ``g_z = 2`` fibres, each over the other three indices in
    ``{0, 1}``.  Rows ``48..80`` are the derived cells, grouped by the
    first axis ``a`` whose index is 2, in the order they can be filled
    (``a = 2``, then 1, then 0).  Derived cell ``g`` is the completed
    triplet without axis ``a`` at ``g``, minus the cells with ``g_a = 0``
    and ``g_a = 1``; each of those is known or belongs to a later axis.

    Returns:
        ``(canonical, plan)``: the row of every cell in canonical
        (C-order over ``{0, 1, 2}^4``) order, and per derived level
        ``(axis, first row, stop row, triplet cells, rows at g_a = 0,
        rows at g_a = 1)``.
    """
    cells = list(product((0, 1), repeat=4))
    for axis in range(4):
        for rest in product((0, 1), repeat=3):
            cells.append(rest[:axis] + (2,) + rest[axis:])
    levels = []
    for axis in (2, 1, 0):
        start = len(cells)
        cells.extend(
            g
            for g in product(range(3), repeat=4)
            if g.count(2) >= 2 and g.index(2) == axis
        )
        levels.append((axis, start, len(cells)))
    row = {g: i for i, g in enumerate(cells)}
    plan = []
    for axis, start, stop in levels:
        level = cells[start:stop]
        rest = [g[:axis] + g[axis + 1 :] for g in level]
        plan.append(
            (
                axis,
                start,
                stop,
                np.array([9 * h[0] + 3 * h[1] + h[2] for h in rest]),
                np.array([row[h[:axis] + (0,) + h[axis:]] for h in rest]),
                np.array([row[h[:axis] + (1,) + h[axis:]] for h in rest]),
            )
        )
    canonical = np.array([row[g] for g in product(range(3), repeat=4)])
    return canonical, plan


#: ``CANONICAL_ROWS[c]`` is the workspace row of canonical cell ``c``.
#: ``DERIVATION[k]`` is ``(axis, start, stop, triplet_cells, rows_at_0,
#: rows_at_1)`` of the ``k``-th derived level (see :func:`_layout`).
CANONICAL_ROWS, DERIVATION = _layout()
#: The bound's rows, in the bound's order.
KNOWN_ROWS = np.arange(N_KNOWN)


def term_table_bytes(n_controls: int, n_cases: int) -> int:
    """Bytes of the per-run term table, or 0 when it exceeds the gate."""
    nbytes = 8 * (n_controls + 1) * (n_cases + 1)
    return nbytes if nbytes <= TERM_TABLE_MAX_BYTES else 0


class K2CellTerms:
    """Per-cell K2 terms for one dataset's class sizes ``(N0, N1)``.

    Args:
        table: the search's lgamma table; it must reach ``N0 + N1 + 2``
            for any count to be in range (see :meth:`in_range`).
        n_controls / n_cases: ``N0`` and ``N1``.
    """

    def __init__(self, table: LgammaTable, n_controls: int, n_cases: int) -> None:
        self.n_controls = int(n_controls)
        self.n_cases = int(n_cases)
        self._plus2 = table.shifted(2)
        self._plus1 = table.shifted(1)
        #: Whether the lgamma table serves every in-range total.
        self._covered = self.n_controls + self.n_cases <= table.max_argument - 2
        #: Flat ``f[r0 * (N1 + 1) + r1]``, or ``None`` above the gate.
        self.table: np.ndarray | None = None
        if self._covered and term_table_bytes(self.n_controls, self.n_cases):
            # Row r0 of lgamma(r0 + r1 + 2) is plus2[r0 : r0 + N1 + 1]: a
            # sliding window, so the table is built without a temporary.
            cols = self.n_cases + 1
            table = np.empty((self.n_controls + 1, cols))
            np.subtract(
                sliding_window_view(self._plus2, cols)[: self.n_controls + 1],
                self._plus1[:cols],
                out=table,
            )
            table -= self._plus1[: self.n_controls + 1, None]
            self.table = table.reshape(-1)

    def in_range(self, r0: np.ndarray, r1: np.ndarray) -> bool:
        """True iff every count lies in ``[0, N0] x [0, N1]``.  Only such
        counts may be looked up: above ``N1`` a case count would alias
        into the next control count's table row."""
        return r0.size == 0 or (
            self._covered
            and int(r0.min()) >= 0
            and int(r1.min()) >= 0
            and int(r0.max()) <= self.n_controls
            and int(r1.max()) <= self.n_cases
        )

    def __call__(
        self,
        r0: np.ndarray,
        r1: np.ndarray,
        out: np.ndarray,
        index: np.ndarray,
    ) -> np.ndarray:
        """Write ``f(r0, r1)`` into ``out``; ``index`` is int64 scratch of
        the same shape.  Counts must be :meth:`in_range`."""
        if self.table is not None:
            np.multiply(r0, self.n_cases + 1, out=index)
            index += r1
            return np.take(self.table, index, out=out, mode="clip")
        np.add(r0, r1, out=index)
        np.take(self._plus2, index, out=out, mode="clip")
        # The totals are consumed: the index memory holds the other two
        # lookups in turn.
        looked_up = index.view(np.float64)
        np.take(self._plus1, r1, out=looked_up, mode="clip")
        out -= looked_up
        np.take(self._plus1, r0, out=looked_up, mode="clip")
        out -= looked_up
        return out

    def __repr__(self) -> str:
        return (
            f"K2CellTerms(n_controls={self.n_controls}, "
            f"n_cases={self.n_cases}, table={self.table is not None})"
        )


class K2Workspace:
    """Reused buffers of the chunked fourth-order K2 kernel.

    One workspace serves one scoring thread (the search keeps one per
    device).  It has two slots, so a chunk's surviving positions can be
    compacted from one into the other; a slot shaped for ``n`` positions
    is C-contiguous, so every row block of it is too, and ``np.take``
    writes into it without a temporary.

    Args:
        terms: the run's :class:`K2CellTerms`.
        capacity: the most positions a chunk may hold.
    """

    def __init__(self, terms: K2CellTerms, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.terms = terms
        self.capacity = int(capacity)
        size = N_CELLS * self.capacity
        self._cells = np.empty((2, 2 * size), dtype=np.int64)
        self._values = np.empty((2, size), dtype=np.float64)
        self._index = np.empty(size, dtype=np.int64)
        self._positions = np.arange(self.capacity)
        self._rows = np.empty(size, dtype=np.float64)

    def slot(self, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Slot ``k`` shaped for ``n`` positions: ``(cells, values)``,
        the ``(2, 81, n)`` int64 counts per class and the ``(81, n)``
        float64 K2 terms, rows in :data:`CANONICAL_ROWS` order."""
        if not 0 < n <= self.capacity:
            raise ValueError(f"chunk of {n} positions, capacity {self.capacity}")
        return (
            self._cells[k, : 2 * N_CELLS * n].reshape(2, N_CELLS, n),
            self._values[k, : N_CELLS * n].reshape(N_CELLS, n),
        )

    def scratch(self, shape: tuple[int, int]) -> np.ndarray:
        """Int64 scratch of ``shape`` (at most ``81 * capacity``
        elements), shared by every step of a chunk: its contents last
        until the next step asks for it."""
        return self._index[: shape[0] * shape[1]].reshape(shape)

    def fill_terms(
        self, r0: np.ndarray, r1: np.ndarray, out: np.ndarray
    ) -> None:
        """Write the K2 terms of ``(r0, r1)`` into ``out`` (rows of a
        slot); the counts must be in range."""
        self.terms(r0, r1, out, self.scratch(r0.shape))

    def row_sums(self, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Per position, the sum of the terms of ``rows`` in that order.

        The terms are first gathered into contiguous position-major rows,
        so each sum adds the same floats in the same order as
        ``.sum(axis=-1)`` over an ``(n, len(rows))`` table of terms.
        """
        n = values.shape[1]
        index = self.scratch((n, len(rows)))
        np.add(self._positions[:n, None], rows * n, out=index)
        picked = self._rows[: index.size].reshape(index.shape)
        np.take(values.reshape(-1), index, out=picked, mode="clip")
        return picked.sum(axis=1)

    def __repr__(self) -> str:
        return f"K2Workspace(capacity={self.capacity}, terms={self.terms!r})"


def workspace_bytes(capacity: int) -> int:
    """Bytes of one :class:`K2Workspace` of ``capacity`` positions: two
    slots of counts (both classes) and terms, an int64 index and a
    position-major term scratch."""
    return 8 * capacity * (N_CELLS * (2 * 2 + 2 + 2) + 1)
