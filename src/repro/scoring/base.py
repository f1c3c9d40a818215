"""Score-function interface."""

from __future__ import annotations

import abc

import numpy as np


class ScoreFunction(abc.ABC):
    """Batched association score over per-class contingency tables.

    Subclasses implement :meth:`__call__` over ``(..., 3^k)``-shaped cell
    batches; genotype axes may come in any ``(3,)*k`` arrangement since every
    implemented statistic is cell-permutation invariant.

    Every score minimises: a lower score is a stronger association, which
    is the direction the searches and baselines reduce in.

    Attributes:
        name: short name of the score.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def __call__(
        self,
        controls_table: np.ndarray,
        cases_table: np.ndarray,
        order: int | None = None,
    ) -> np.ndarray:
        """Score batches of tables.

        Args:
            controls_table: ``(..., 3, ..., 3)`` integer counts (controls).
            cases_table: matching-shape counts (cases).
            order: number of trailing genotype axes.  When omitted it is
                inferred as the maximal run of trailing size-3 axes — always
                correct for unbatched tables; batched callers should pass it
                explicitly.

        Returns:
            ``(...)`` float64 scores (scalar for unbatched input).
        """

    @staticmethod
    def _infer_order(table: np.ndarray, order: int | None) -> int:
        if order is not None:
            if order < 1 or table.ndim < order:
                raise ValueError(
                    f"order {order} invalid for table of shape {table.shape}"
                )
            return order
        inferred = 0
        for size in reversed(table.shape):
            if size != 3:
                break
            inferred += 1
        if inferred == 0:
            raise ValueError(
                f"cannot infer interaction order from shape {table.shape}"
            )
        return inferred

    @classmethod
    def _flatten_cells(cls, table: np.ndarray, order: int | None) -> np.ndarray:
        """Collapse the ``order`` trailing genotype axes into one cell axis."""
        table = np.asarray(table)
        k = cls._infer_order(table, order)
        batch = table.shape[: table.ndim - k]
        return table.reshape(batch + (-1,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

