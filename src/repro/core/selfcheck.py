"""Opt-in runtime self-verification of search results.

When enabled, every evaluation round's best quad is re-derived through an
*independent* integer path — the three-plane bitwise AND+POPC construction
(BitEpi-style), built from the stored two planes plus the complemented
``aa`` plane — and its score recomputed and compared against the tensor
pipeline's value.  Any disagreement aborts the search immediately.

This is the "paranoia mode" a multi-hour production run wants: it costs one
table construction per round (negligible next to ``B⁴`` completions) and
catches corruption anywhere in the combine → GEMM → translation →
completion → scoring chain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.datasets.encoding import EncodedDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.apply_score import RoundOperands, ScoreMinFn


class SelfCheckError(AssertionError):
    """The tensor pipeline and the independent bitwise path disagreed."""


def direct_quad_tables(
    encoded: EncodedDataset, quad: tuple[int, int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """81-cell tables for one quad via pure bitwise AND+POPC.

    Independent of the GEMM/completion machinery: the ``aa`` plane is
    reconstructed as the complement of the stored two planes, and all 81
    four-way ANDs are popcounted directly.
    """
    tables = []
    for cls in (0, 1):
        planes = encoded.class_matrix(cls)
        dense = planes.to_bool()
        per_snp = []
        for snp in quad:
            p0 = dense[2 * snp]
            p1 = dense[2 * snp + 1]
            per_snp.append(np.stack([p0, p1, ~(p0 | p1)]))
        joint = (
            per_snp[0][:, None, None, None]
            & per_snp[1][None, :, None, None]
            & per_snp[2][None, None, :, None]
            & per_snp[3][None, None, None, :]
        )
        tables.append(joint.sum(axis=-1, dtype=np.int64))
    return tables[0], tables[1]


def _block_planes(dense: np.ndarray, offset: int, block_size: int) -> np.ndarray:
    """``(B, 2, N)`` boolean planes of one block (row ``2*m + g`` layout)."""
    return dense[2 * offset : 2 * (offset + block_size)].reshape(
        block_size, 2, -1
    )


def direct_round_operands(
    encoded: EncodedDataset,
    offsets: tuple[int, int, int, int],
    block_size: int,
) -> "RoundOperands":
    """Recompute one round's tensor outputs through the independent
    bitwise path (no tensor engine, no combine kernel, no cache).

    The reference the tests and the applyScore ablation score against:
    the corners are exact integer popcounts, so feeding them through the
    *same* completion + scoring code yields bit-identical scores to the
    tensor pipeline's round.

    Args:
        encoded: the encoded dataset.
        offsets: global block offsets ``(wo, xo, yo, zo)``.
        block_size: ``B``.

    Returns:
        A :class:`~repro.core.apply_score.RoundOperands` equivalent to
        the tensor pipeline's (same shapes, dtypes and values).
    """
    from repro.core.apply_score import RoundOperands

    b = block_size
    wo, xo, yo, zo = offsets
    corner4: list[np.ndarray] = []
    c_wxy: list[np.ndarray] = []
    c_wxz: list[np.ndarray] = []
    c_wyz: list[np.ndarray] = []
    c_xyz: list[np.ndarray] = []
    for cls in (0, 1):
        dense = encoded.class_matrix(cls).to_bool()
        wb = _block_planes(dense, wo, b)
        xb = _block_planes(dense, xo, b)
        yb = _block_planes(dense, yo, b)
        zb = _block_planes(dense, zo, b)
        # Combined operands in the engine's row order (i, g_i, j, g_j).
        wx = (wb[:, :, None, None, :] & xb[None, None, :, :, :]).reshape(
            4 * b * b, -1
        )
        wy = (wb[:, :, None, None, :] & yb[None, None, :, :, :]).reshape(
            4 * b * b, -1
        )
        xy = (xb[:, :, None, None, :] & yb[None, None, :, :, :]).reshape(
            4 * b * b, -1
        )
        yz = (yb[:, :, None, None, :] & zb[None, None, :, :, :]).reshape(
            4 * b * b, -1
        )
        wx64 = wx.astype(np.int64)
        raw4 = wx64 @ yz.astype(np.int64).T  # (4B^2, 4B^2)
        corner4.append(
            np.ascontiguousarray(
                raw4.reshape(b, 2, b, 2, b, 2, b, 2).transpose(
                    0, 2, 4, 6, 1, 3, 5, 7
                )
            )
        )

        def corner3(pair: np.ndarray, tail: np.ndarray) -> np.ndarray:
            raw = pair.astype(np.int64) @ tail.reshape(2 * b, -1).astype(
                np.int64
            ).T  # (4B^2, 2B)
            out = raw.reshape(b, 2, b, 2, b, 2).transpose(0, 2, 4, 1, 3, 5)
            return np.ascontiguousarray(out, dtype=np.int32)

        c_wxy.append(corner3(wx, yb))
        c_wxz.append(corner3(wx, zb))
        c_wyz.append(corner3(wy, zb))
        c_xyz.append(corner3(xy, zb))
    return RoundOperands(
        corner4=(corner4[0], corner4[1]),
        corner3_wxy=(c_wxy[0], c_wxy[1]),
        corner3_wxz=(c_wxz[0], c_wxz[1]),
        corner3_wyz=(c_wyz[0], c_wyz[1]),
        corner3_xyz=(c_xyz[0], c_xyz[1]),
        offsets=(wo, xo, yo, zo),
        block_size=b,
    )


def verify_round_best(
    encoded: EncodedDataset,
    scores: np.ndarray,
    offsets: tuple[int, int, int, int],
    score_min_fn: "ScoreMinFn",
    *,
    atol: float = 1e-8,
    rtol: float = 1e-10,
) -> None:
    """Re-derive the round's best quad independently and compare scores.

    Args:
        encoded: the encoded dataset the search runs on.
        scores: the round's masked ``(B, B, B, B)`` score grid.
        offsets: the round's global block offsets.
        score_min_fn: the search's minimization-normalized score callable.

    Raises:
        SelfCheckError: if the independent path disagrees.
    """
    pos = int(np.argmin(scores))
    pipeline_score = float(scores.flat[pos])
    if not np.isfinite(pipeline_score):
        return  # fully-masked round: nothing to check
    b = scores.shape[0]
    wi, xi, yi, zi = np.unravel_index(pos, scores.shape)
    quad = (
        offsets[0] + int(wi),
        offsets[1] + int(xi),
        offsets[2] + int(yi),
        offsets[3] + int(zi),
    )
    t0, t1 = direct_quad_tables(encoded, quad)
    direct_score = float(score_min_fn(t0, t1, order=4))
    if not np.isclose(pipeline_score, direct_score, atol=atol, rtol=rtol):
        raise SelfCheckError(
            f"self-check failed for quad {quad} at round offsets {offsets}: "
            f"pipeline score {pipeline_score!r} vs independent bitwise score "
            f"{direct_score!r} — tensor pipeline corruption"
        )
