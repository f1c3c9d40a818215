"""``tensorOp_4way``: the dominant kernel of the search.

Multiplying the pre-combined ``W x X`` operand by the pre-combined ``Y x Z``
operand yields, in one binary GEMM, the ``{0,1}^4`` corner — 16 of the 81
genotype counts — for every one of the ``B^4`` quads of an evaluation round.
The paper's profile attributes ~83% of GPU time to this (plus the 3-way)
kernel.

Either operand may be *diagonal-compact*: when its two blocks are one
block, it carries only the ``2*B*(B-1)`` rows with ``w < x`` (see
:func:`~repro.bitops.combine.diagonal_compact`), because no valid quad reads
the others.  The GEMM then runs on the compact rows, and the result is
scattered back into the full corner layout with zeros at the dropped
positions — all of them outside the round's validity mask.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.bitops.bitmatrix import BitMatrix
from repro.bitops.combine import diagonal_rows
from repro.tensor.engine import BinaryTensorEngine


def tensorop_4way(
    engine: BinaryTensorEngine,
    combined_wx: BitMatrix,
    combined_yz: BitMatrix,
    block_size: int,
) -> np.ndarray:
    """Fourth-order corners for all quads of a round.

    Args:
        engine: binary tensor engine.
        combined_wx: :func:`~repro.bitops.combine_blocks` output for blocks
            ``W`` and ``X`` (``4*B^2`` rows, or ``2*B*(B-1)`` when
            diagonal-compact).
        combined_yz: same for blocks ``Y`` and ``Z``.
        block_size: ``B``.

    Returns:
        ``(B, B, B, B, 2, 2, 2, 2)`` int64 corner counts indexed by
        ``(w, x, y, z, g_w, g_x, g_y, g_z)`` (positions within blocks);
        zero where a compact operand dropped the row.
    """
    _check_rows(
        block_size, [("combined_wx", combined_wx), ("combined_yz", combined_yz)]
    )
    raw = engine.matmul_popcount(combined_wx, combined_yz)
    return _corner4(raw, block_size)


def tensorop_4way_batch(
    engine: BinaryTensorEngine,
    combined_wx: BitMatrix,
    combined_yz_list: list[BitMatrix],
    block_size: int,
) -> list[np.ndarray]:
    """Fourth-order corners for a whole round group in one fused launch.

    The group's rounds share ``combined_wx`` (Algorithm 1 holds ``W x X``
    fixed across the inner ``(Y, Z)`` loops), so the engine stacks the
    ``yz`` operands and issues a single wide GEMM — per-round results are
    bit-identical to :func:`tensorop_4way`.  Full and compact ``yz``
    operands may share a launch.
    """
    _check_rows(
        block_size,
        [("combined_wx", combined_wx)]
        + [(f"combined_yz[{i}]", yz) for i, yz in enumerate(combined_yz_list)],
    )
    raws = engine.matmul_popcount_batch(
        [(combined_wx, yz) for yz in combined_yz_list]
    )
    return [_corner4(raw, block_size) for raw in raws]


def _check_rows(b: int, operands: list[tuple[str, BitMatrix]]) -> None:
    full, compact = 4 * b * b, 2 * b * (b - 1)
    for name, op in operands:
        if op.n_rows not in (full, compact):
            raise ValueError(
                f"{name} has {op.n_rows} rows, expected 4*B^2 = {full} "
                f"(or 2*B*(B-1) = {compact} diagonal-compact)"
            )


def _corner4(raw: np.ndarray, b: int) -> np.ndarray:
    """``(R_wx, R_yz)`` GEMM output in the ``(w, x, y, z, g...)`` corner
    layout."""
    full = 4 * b * b
    if raw.shape == (full, full):
        corner = raw.reshape(b, 2, b, 2, b, 2, b, 2).transpose(
            0, 2, 4, 6, 1, 3, 5, 7
        )
        return np.ascontiguousarray(corner)
    out = np.zeros((b,) * 4 + (2,) * 4, dtype=raw.dtype)
    dest = _corner_offsets(b, raw.shape[0] != full, raw.shape[1] != full)
    out.reshape(-1)[dest] = raw
    return out


@functools.lru_cache(maxsize=None)
def _corner_offsets(b: int, compact_wx: bool, compact_yz: bool) -> np.ndarray:
    """Flat corner-layout offset of every ``(wx row, yz row)`` GEMM
    output, for full or diagonal-compact operands."""
    i, gi, j, gj = np.unravel_index(np.arange(4 * b * b), (b, 2, b, 2))
    # Row (i, gi, j, gj) of wx lands at (w, x, g_w, g_x) = (i, j, gi, gj);
    # of yz, at (y, z, g_y, g_z).
    wx = (i * b + j) * b * b * 16 + gi * 8 + gj * 4
    yz = (i * b + j) * 16 + gi * 2 + gj
    if compact_wx:
        wx = wx[diagonal_rows(b)]
    if compact_yz:
        yz = yz[diagonal_rows(b)]
    dest = wx[:, None] + yz[None, :]
    dest.setflags(write=False)
    return dest
