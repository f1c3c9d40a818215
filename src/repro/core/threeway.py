"""``tensorOp_3way``: tensor-accelerated third-order corner construction.

One call multiplies a pre-combined two-block operand (``4*B^2`` rows) with
the raw bit-planes of a *tail* of SNPs ``[t_start, t_stop)`` (``2*T`` rows),
yielding the ``{0,1}^3`` corners — 8 of the 27 genotype counts — for all
``B^2 * T`` triplets in one GEMM (``8 x B^2 x (M - t_start)`` integers, as
sized in §3.2).

The three-phase structure of Algorithm 1 (one sweep per loop level: ``wx``
at the X loop, ``wy``/``xy`` at the Y loop) is what keeps the third-order
working set bounded; this module provides the single-sweep primitive, and
:mod:`repro.core.search` schedules the phases.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.bitmatrix import BitMatrix
from repro.contingency.complete import complete_triple
from repro.tensor.engine import BinaryTensorEngine


def tensorop_3way(
    engine: BinaryTensorEngine,
    combined: BitMatrix,
    class_planes: BitMatrix,
    t_start: int,
    t_stop: int,
    block_size: int,
) -> np.ndarray:
    """Third-order corners for (block-pair) x (SNP tail).

    Args:
        engine: binary tensor engine.
        combined: output of :func:`~repro.bitops.combine_blocks` for the two
            leading blocks (``4*B^2`` rows).
        class_planes: the per-class encoded matrix (``2*M`` rows).
        t_start: first tail SNP index (inclusive).
        t_stop: last tail SNP index (exclusive).
        block_size: ``B``.

    Returns:
        ``(B, B, T, 2, 2, 2)`` int32 corners, indexed by (first-block SNP,
        second-block SNP, tail SNP, g_first, g_second, g_tail).
    """
    b = block_size
    if combined.n_rows != 4 * b * b:
        raise ValueError(
            f"combined operand has {combined.n_rows} rows, expected 4*B^2 = {4 * b * b}"
        )
    if not 0 <= t_start < t_stop <= class_planes.n_rows // 2:
        raise ValueError(
            f"tail range [{t_start}, {t_stop}) invalid for "
            f"{class_planes.n_rows // 2} SNPs"
        )
    tail = class_planes.select_rows(2 * t_start, 2 * t_stop)
    raw = engine.matmul_popcount(combined, tail)  # (4B^2, 2T)
    return _reshape_corner3(raw, b, t_stop - t_start)


def tensorop_3way_batch(
    engine: BinaryTensorEngine,
    combined_list: list[BitMatrix],
    class_planes: BitMatrix,
    t_start: int,
    t_stop: int,
    block_size: int,
) -> list[np.ndarray]:
    """Several sweeps against the same tail in one fused launch.

    The Y-loop issues two sweeps per step (``wy`` and ``xy``) over an
    identical SNP tail; stacking their combined operands halves the launch
    count while producing bit-identical per-sweep corners.
    """
    b = block_size
    for i, combined in enumerate(combined_list):
        if combined.n_rows != 4 * b * b:
            raise ValueError(
                f"combined operand [{i}] has {combined.n_rows} rows, "
                f"expected 4*B^2 = {4 * b * b}"
            )
    if not 0 <= t_start < t_stop <= class_planes.n_rows // 2:
        raise ValueError(
            f"tail range [{t_start}, {t_stop}) invalid for "
            f"{class_planes.n_rows // 2} SNPs"
        )
    tail = class_planes.select_rows(2 * t_start, 2 * t_stop)
    raws = engine.matmul_popcount_batch(
        [(combined, tail) for combined in combined_list]
    )
    t = t_stop - t_start
    return [_reshape_corner3(raw, b, t) for raw in raws]


def _reshape_corner3(raw: np.ndarray, b: int, t: int) -> np.ndarray:
    corner = raw.reshape(b, 2, b, 2, t, 2).transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(corner, dtype=np.int32)


def complete_threeway(
    corner: np.ndarray,
    pairs_cls: np.ndarray,
    a_indices: np.ndarray,
    b_indices: np.ndarray,
    c_indices: np.ndarray,
) -> np.ndarray:
    """Complete third-order corners to full 27-cell tables (§3.3).

    Args:
        corner: ``(A, B, C, 2, 2, 2)`` corners for SNP triplets
            ``(a_indices[i], b_indices[j], c_indices[k])``.
        pairs_cls: ``(M, M, 3, 3)`` full pairwise tables of one class.
        a_indices: global SNP indices along the first axis.
        b_indices: global SNP indices along the second axis.
        c_indices: global SNP indices along the third axis.

    Returns:
        ``(A, B, C, 3, 3, 3)`` int32 completed tables (see
        :func:`~repro.contingency.complete.complete_triple`).
    """
    a_idx = np.asarray(a_indices, dtype=np.intp)
    b_idx = np.asarray(b_indices, dtype=np.intp)
    c_idx = np.asarray(c_indices, dtype=np.intp)
    pair_ab = pairs_cls[np.ix_(a_idx, b_idx)][:, :, None]  # (A, B, 1, 3, 3)
    pair_ac = pairs_cls[np.ix_(a_idx, c_idx)][:, None, :]  # (A, 1, C, 3, 3)
    pair_bc = pairs_cls[np.ix_(b_idx, c_idx)][None, :, :]  # (1, B, C, 3, 3)
    return complete_triple(corner, pair_ab, pair_ac, pair_bc)
