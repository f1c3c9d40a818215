"""Analytic completion of contingency tables (paper §3.3).

Only the ``AA``/``Aa`` genotype bit-planes are stored, so the tensor GEMMs
yield only the ``{0,1}^k`` corner of each ``(3,)*k`` table.  Every cell with
at least one ``aa`` (code 2) index is derived by inclusion-exclusion: the
answer to "is the genotype ``aa``?" is implied by the answers for ``AA`` and
``Aa``.  Concretely, eliminating one axis at value 2,

    n[..., 2, ...] = marginal_over_that_axis[...] - n[..., 0, ...] - n[..., 1, ...],

where the marginal is the *full* ``(k-1)``-order table of the remaining
SNPs.  Filling axes from last to first makes every right-hand side available
when needed; the fourth-order table thus needs full third-order tables for
all four contained triplets, which in turn need full pairwise tables, which
need per-SNP counts — exactly the dependency chain realised by
``pairwPop``/``indivPop`` and the three-phase ``tensorOp_3way`` calls of
Algorithm 1.

All functions are batched: genotype axes are the trailing axes; any leading
axes (e.g. one per quad of a round) broadcast through.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def complete_tables(
    corner: np.ndarray,
    marginals: Sequence[np.ndarray],
    order: int,
    dtype: type = np.int64,
) -> np.ndarray:
    """Complete a batched ``(3,)*order`` table from its ``{0,1}^order`` corner.

    Args:
        corner: ``(..., 2, 2, ..., 2)`` counts of the all-bit-plane genotypes
            (``order`` trailing axes of size 2).
        marginals: ``marginals[axis]`` is the **full** ``(3,)*(order-1)``
            table of the SNPs with ``axis`` removed, with matching batch
            shape.  (For ``order == 1`` pass a single 0-d/batched total
            count ``N``.)
        order: interaction order ``k >= 1``.
        dtype: integer type of the result.  Every cell is a count in
            ``[0, N]``, so any type that holds ``N`` is exact.

    Returns:
        ``(..., 3, 3, ..., 3)`` completed table of ``dtype``.
    """
    corner = np.asarray(corner)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if corner.shape[corner.ndim - order :] != (2,) * order:
        raise ValueError(
            f"corner must end in {(2,) * order}, got shape {corner.shape}"
        )
    if len(marginals) != order:
        raise ValueError(f"need {order} marginals, got {len(marginals)}")
    batch = corner.shape[: corner.ndim - order]
    out = np.zeros(batch + (3,) * order, dtype=dtype)
    out[(...,) + (slice(0, 2),) * order] = corner

    for axis in reversed(range(order)):
        # Axes before `axis` are still restricted to {0,1}; axes after it are
        # already fully populated, so they range over {0,1,2}.
        pre = (slice(0, 2),) * axis
        post = (slice(None),) * (order - axis - 1)
        marg = np.asarray(marginals[axis])
        if order == 1:
            marg_slice = marg
        else:
            want_tail = (3,) * (order - 1)
            if marg.shape[marg.ndim - (order - 1) :] != want_tail:
                raise ValueError(
                    f"marginal for axis {axis} must end in {want_tail}, "
                    f"got shape {marg.shape}"
                )
            marg_slice = marg[(...,) + pre + post]
        out[(...,) + pre + (2,) + post] = (
            marg_slice
            - out[(...,) + pre + (0,) + post]
            - out[(...,) + pre + (1,) + post]
        )
    return out


def complete_single(corner: np.ndarray, n_total: int | np.ndarray) -> np.ndarray:
    """First-order completion: ``(..., 2)`` plane counts -> ``(..., 3)``.

    ``n[2] = N - n[0] - n[1]`` (the ``aa`` count is whatever remains).
    """
    return complete_tables(corner, [np.asarray(n_total)], order=1)


def complete_pair(
    corner: np.ndarray, single_a: np.ndarray, single_b: np.ndarray
) -> np.ndarray:
    """Second-order completion from the ``{0,1}^2`` corner and both singles.

    Args:
        corner: ``(..., 2, 2)`` tensor counts.
        single_a: full ``(..., 3)`` table of the first SNP (marginal when
            axis 0 is removed is the *second* SNP's table, and vice versa —
            this function takes them in SNP order and wires them correctly).
        single_b: full ``(..., 3)`` table of the second SNP.
    """
    return complete_tables(corner, [single_b, single_a], order=2)


def complete_triple(
    corner: np.ndarray,
    pair_ab: np.ndarray,
    pair_ac: np.ndarray,
    pair_bc: np.ndarray,
) -> np.ndarray:
    """Third-order completion from the ``{0,1}^3`` corner and full pair tables.

    Args:
        corner: ``(..., 2, 2, 2)`` tensor counts for SNPs ``(a, b, c)``.
        pair_ab: full ``(..., 3, 3)`` table of ``(a, b)``.
        pair_ac: full ``(..., 3, 3)`` table of ``(a, c)``.
        pair_bc: full ``(..., 3, 3)`` table of ``(b, c)``.

    Returns:
        ``(..., 3, 3, 3)`` int32 completed table: counts are below
        ``2^31``, and int32 halves the bytes a cached table occupies.
    """
    return complete_tables(
        corner, [pair_bc, pair_ac, pair_ab], order=3, dtype=np.int32
    )


def complete_quad(
    corner: np.ndarray,
    triple_wxy: np.ndarray,
    triple_wxz: np.ndarray,
    triple_wyz: np.ndarray,
    triple_xyz: np.ndarray,
) -> np.ndarray:
    """Fourth-order completion from the 16-cell corner and all four triples.

    Args:
        corner: ``(..., 2, 2, 2, 2)`` tensor counts for SNPs ``(w, x, y, z)``
            (the 16 values per quad produced by ``tensorOp_4way``).
        triple_wxy: full ``(..., 3, 3, 3)`` table of ``(w, x, y)``.
        triple_wxz: full table of ``(w, x, z)``.
        triple_wyz: full table of ``(w, y, z)``.
        triple_xyz: full table of ``(x, y, z)``.

    Returns:
        ``(..., 3, 3, 3, 3)`` — the 81 genotype counts per quad, per class.
    """
    return complete_tables(
        corner, [triple_xyz, triple_wyz, triple_wxz, triple_wxy], order=4
    )
