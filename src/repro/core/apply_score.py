"""``applyScore``: completion + scoring + masking for one evaluation round.

Takes the per-class fourth-order corners (16 counts/quad from the tensor
GEMM) and the third-order corner slices for the four contained triplets,
completes the tables per class (§3.3) from the three completed triplets
the derivation reads, scores every *useful* quad, and marks non-useful
positions (repeated/unsorted quads and padding) and pruned ones with
``+inf``.

Two implementations are provided:

:func:`score_round` (the search's kernel)
    **Mask-first**: only the validity mask's positions are touched.  They
    are walked in chunks of :data:`CHUNK_POSITIONS`, and every chunk runs
    the bound, the completion and the K2 sum in one cache-sized
    :class:`~repro.scoring.workspace.K2Workspace`, reused by every chunk
    and round, so no per-chunk temporary holds more than a few vectors of
    positions:

    1. :meth:`K2BoundKernel.quad_bounds
       <repro.scoring.bounds.K2BoundKernel.quad_bounds>` gathers the 48
       cells with at most one ``aa`` index and their K2 terms, and returns
       each position's admissible lower bound.  With a finite top-k
       threshold, positions whose bound exceeds it are dropped, so the
       final top-k stays bit-identical to the exhaustive run.
    2. The survivors keep those cells and terms.  :func:`complete_quad`
       derives only the 33 cells with two or more ``aa`` indices, from
       the 48 cells and the completed triplets.
    3. :meth:`StagedK2Kernel.score_flat
       <repro.scoring.k2.StagedK2Kernel.score_flat>` looks up the other 33
       terms and sums each position's 81 terms in canonical cell order.

    Per-cell terms come from the run's
    :class:`~repro.scoring.workspace.K2CellTerms`: one gather from a
    ``(N0 + 1) x (N1 + 1)`` table when it fits its size gate, else three
    lgamma gathers.  Either way, bounds and scores are bit-identical to
    the reference :class:`~repro.scoring.k2.K2Score` (same float lookups,
    same elementwise ``a - b - c``, same row sum).

    Each derived level of :data:`~repro.scoring.workspace.DERIVATION`
    reads one completed third-order table: the triplet without the
    level's axis (``xyz``, ``wyz`` or ``wxz``, see :func:`round_triples`).
    Only those three are completed; the ``wxy`` triplet enters through
    its corner slice alone (the bound's ``g_z = 2`` fibres).  They are
    requested through a pluggable ``full3_provider`` on the first chunk
    with a survivor.  A block triple's table is a pure function of its
    (sorted) block offsets, so the search wires the provider to the
    :class:`~repro.core.operand_cache.OperandCache` under keys
    ``("full3", cls, a, b, c)``; within a round, levels that share a
    block triple (diagonal rounds) are deduped first.

:func:`apply_score_dense` (the legacy reference)
    Completes and scores the full ``B^4 x 81`` grid, then masks.  Kept
    bit-identical to the pre-fusion implementation as the per-round
    reference the kernel is tested and benchmarked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scoring.k2 import StagedK2Kernel

from repro.contingency.complete import complete_quad as complete_quad_table
from repro.core.threeway import complete_threeway
from repro.scoring.bounds import PRUNE_SLACK, K2BoundKernel
from repro.scoring.workspace import (
    CHUNK_POSITIONS,
    DERIVATION,
    N_KNOWN,
    K2CellTerms,
    K2Workspace,
)

#: Cells per class the dense reference completes at once (chunked along
#: ``w``).
DENSE_CHUNK_CELLS = 32 * 1024 * 1024

#: Per derived level of :data:`~repro.scoring.workspace.DERIVATION`,
#: the axes of the completed triplet it reads: every axis but the
#: level's own.
TRIPLET_AXES = tuple(
    tuple(k for k in range(4) if k != axis) for axis, *_ in DERIVATION
)

#: ``full3_provider`` signature: ``(cls, (a, b, c) block offsets, factory)
#: -> table``.
Full3Provider = Callable[
    [int, tuple[int, int, int], Callable[[], np.ndarray]], np.ndarray
]

#: Batched score callable ``(t0, t1, order=4) -> per-position scores``,
#: lower is better (e.g. :class:`repro.scoring.k2.K2Score`) — the
#: reference scorer of :func:`apply_score_dense` and the self-check.
ScoreMinFn = Callable[..., np.ndarray]


@dataclass(frozen=True)
class RoundOperands:
    """Everything ``applyScore`` needs for one evaluation round.

    All corner arrays are tuples ``(controls, cases)``.

    Attributes:
        corner4: per class ``(B, B, B, B, 2, 2, 2, 2)`` from ``tensorOp_4way``.
        corner3_wxy: per class ``(B, B, B, 2, 2, 2)`` slice of the ``wx``
            sweep at the ``Y`` block.
        corner3_wxz: per class slice of the ``wx`` sweep at the ``Z`` block.
        corner3_wyz: per class slice of the ``wy`` sweep at the ``Z`` block.
        corner3_xyz: per class slice of the ``xy`` sweep at the ``Z`` block.
        offsets: global first-SNP indices ``(wo, xo, yo, zo)`` of the blocks.
        block_size: ``B``.
    """

    corner4: tuple[np.ndarray, np.ndarray]
    corner3_wxy: tuple[np.ndarray, np.ndarray]
    corner3_wxz: tuple[np.ndarray, np.ndarray]
    corner3_wyz: tuple[np.ndarray, np.ndarray]
    corner3_xyz: tuple[np.ndarray, np.ndarray]
    offsets: tuple[int, int, int, int]
    block_size: int


@dataclass(frozen=True)
class RoundScoreStats:
    """Per-round accounting of the fused ``applyScore`` path.

    Attributes:
        positions: grid size ``B^4``.
        valid: mask-valid positions that survived the bound gate and were
            completed + scored (without pruning this equals the mask-valid
            count; the conservation law is ``mask_valid == valid + pruned``).
        chunks: chunks of mask-valid positions walked (each is bounded,
            whether or not any of its positions survives).
        pruned: mask-valid positions dropped by the admissible-bound gate
            before completion (their lower bound exceeded the top-k
            threshold, so they provably cannot enter the final top-k).
    """

    positions: int
    valid: int
    chunks: int
    pruned: int = 0

    @property
    def compaction_ratio(self) -> float:
        """Fraction of grid positions actually scored (lower = more saved)."""
        return self.valid / self.positions if self.positions else 0.0


def round_validity_mask(
    offsets: tuple[int, int, int, int], block_size: int, n_real_snps: int
) -> np.ndarray:
    """Boolean ``(B, B, B, B)`` mask of *useful* quad positions.

    A position is useful iff its global indices are strictly increasing
    (``w < x < y < z`` — each distinct combination is scored exactly once
    across the whole search) and within the unpadded SNP range.
    """
    b = block_size
    wo, xo, yo, zo = offsets
    w = np.arange(wo, wo + b)
    x = np.arange(xo, xo + b)
    y = np.arange(yo, yo + b)
    z = np.arange(zo, zo + b)
    return (
        (w[:, None, None, None] < x[None, :, None, None])
        & (x[None, :, None, None] < y[None, None, :, None])
        & (y[None, None, :, None] < z[None, None, None, :])
        & (z[None, None, None, :] < n_real_snps)
    )


def round_triples(
    offsets: tuple[int, int, int, int],
) -> list[tuple[int, int, int]]:
    """Per derived level, the block offsets of the completed triplet it
    reads (see :data:`TRIPLET_AXES`)."""
    return [tuple(offsets[k] for k in axes) for axes in TRIPLET_AXES]


def _full3_tables(
    operands: RoundOperands,
    pairs: np.ndarray,
    full3_provider: Full3Provider | None,
) -> list[list[np.ndarray]]:
    """Per class and derived level, the level's completed-triplet margin.

    The completed table for a block triple depends only on its (already
    non-decreasing) block offsets: the corner slice is the same sweep GEMM
    output and the completion gathers the same global pair tables whichever
    level reads the triple.  Diagonal rounds therefore resolve several
    levels to one table, and the provider (when given) shares tables
    across rounds.

    Returns:
        ``margins[cls][k]``: the ``(K, B^3)`` int64 counts of level
        ``k``'s triplet at the level's ``K`` triplet cells, so a chunk
        gathers its ``(K, V)`` rows with one take.
    """
    b = operands.block_size
    indices = [np.arange(o, o + b) for o in operands.offsets]
    local: dict[tuple[int, tuple[int, int, int]], np.ndarray] = {}
    margins: list[list[np.ndarray]] = [[], []]
    for (_, _, _, triplet_cells, _, _), axes, triple in zip(
        DERIVATION, TRIPLET_AXES, round_triples(operands.offsets)
    ):
        role = "".join("wxyz"[k] for k in axes)
        corners = getattr(operands, f"corner3_{role}")
        idx = [indices[k] for k in axes]
        for cls in (0, 1):
            table = local.get((cls, triple))
            if table is None:

                def factory(
                    corner=corners[cls], pairs_cls=pairs[cls], idx=idx
                ) -> np.ndarray:
                    return complete_threeway(corner, pairs_cls, *idx)

                table = (
                    factory()
                    if full3_provider is None
                    else full3_provider(cls, triple, factory)
                )
                local[(cls, triple)] = table
            margins[cls].append(
                np.ascontiguousarray(
                    table.reshape(-1, 27)[:, triplet_cells].T, dtype=np.int64
                )
            )
    return margins


def complete_quad(
    cells: np.ndarray,
    margins: list[list[np.ndarray]],
    rows: list[np.ndarray],
    workspace: K2Workspace,
) -> np.ndarray:
    """Derive the cells with two or more ``aa`` indices (§3.3).

    Fills rows ``48..80`` of a workspace slot whose 48 known rows hold
    the fourth-order corners and one-``aa`` fibers, level by level in
    :data:`~repro.scoring.workspace.DERIVATION` order: each cell is its
    completed-triplet marginal minus the two cells that differ from it
    only in the level's axis (``g_a = 0`` and ``g_a = 1``), all of which
    are already filled.

    Args:
        cells: ``(2, 81, V)`` int64 slot counts (both classes).
        margins: per class and derived level, the ``(K, B^3)`` int64
            counts of the round's completed triplet without the level's
            axis, at the level's ``K`` cells.
        rows: per derived level, the ``(V,)`` row of each position in
            that triplet.
        workspace: supplies the int64 scratch.

    Returns:
        ``cells``, completed in place.
    """
    n = cells.shape[2]
    for cls in (0, 1):
        counts = cells[cls]
        for (_, start, stop, _, low, high), margin, row in zip(
            DERIVATION, margins[cls], rows
        ):
            out = counts[start:stop]
            np.take(margin, row, axis=1, out=out, mode="clip")
            other = workspace.scratch((stop - start, n))
            np.take(counts, low, axis=0, out=other, mode="clip")
            out -= other
            np.take(counts, high, axis=0, out=other, mode="clip")
            out -= other
    return cells


def _class_sizes(pairs: np.ndarray) -> tuple[int, int]:
    """``(N0, N1)``: every pairwise table of a class sums to its size."""
    return int(pairs[0, 0, 0].sum()), int(pairs[1, 0, 0].sum())


def score_round(
    operands: RoundOperands,
    pairs: np.ndarray,
    staged_kernel: "StagedK2Kernel",
    n_real_snps: int,
    *,
    full3_provider: Full3Provider | None = None,
    bound_kernel: K2BoundKernel | None = None,
    prune_threshold: Callable[[], float] | None = None,
    workspace: K2Workspace | None = None,
) -> tuple[np.ndarray, RoundScoreStats]:
    """Chunked mask-first scoring of one round (see module docstring).

    Args:
        operands: the round's tensor outputs, see :class:`RoundOperands`.
        pairs: ``(2, M, M, 3, 3)`` full pairwise tables (both classes).
        staged_kernel: the :class:`~repro.scoring.k2.StagedK2Kernel` that
            scores the completed tables (K2, lower is better).
        n_real_snps: unpadded SNP count (padding exclusion).
        full3_provider: optional cross-round completed-triplet cache hook
            (see :data:`Full3Provider`).
        bound_kernel: the :class:`~repro.scoring.bounds.K2BoundKernel`
            that gathers each chunk's known cells; one over the lgamma
            table of ``staged_kernel`` and the class sizes of ``pairs``
            when omitted.
        prune_threshold: zero-argument callable returning the current
            top-k threshold (``TopKReducer.kth_score``-style: ``+inf``
            disables), read once per round.  Mask-valid positions whose
            admissible lower bound exceeds it are dropped before any
            completion or scoring; pruned positions stay ``+inf`` in the
            returned grid, exactly like masked ones, so the reduction is
            oblivious to pruning.
        workspace: the scoring thread's
            :class:`~repro.scoring.workspace.K2Workspace`; its capacity is
            the chunk size.  A private one of :data:`CHUNK_POSITIONS`
            positions (term table built for this call) when omitted.

    Returns:
        ``(scores, stats)`` — the ``(B, B, B, B)`` float64 grid with
        ``+inf`` at masked and pruned positions, and the round's
        :class:`RoundScoreStats`.
    """
    b = operands.block_size
    mask = round_validity_mask(operands.offsets, b, n_real_snps)
    w_pos, x_pos, y_pos, z_pos = np.nonzero(mask)
    n_valid = int(w_pos.size)
    scores = np.full((b, b, b, b), np.inf, dtype=np.float64)
    if n_valid == 0:
        return scores, RoundScoreStats(positions=b**4, valid=0, chunks=0)
    if bound_kernel is None:
        bound_kernel = K2BoundKernel(staged_kernel.table, *_class_sizes(pairs))
    if workspace is None:
        workspace = K2Workspace(
            K2CellTerms(
                staged_kernel.table,
                bound_kernel.n_controls,
                bound_kernel.n_cases,
            ),
            min(n_valid, CHUNK_POSITIONS),
        )
    threshold = math.inf if prune_threshold is None else float(prune_threshold())
    # Strictly-above-threshold only (plus FP slack): ties are kept, so the
    # admissible bound can never drop a quad the exhaustive reduction
    # would have ranked.
    limit = threshold + PRUNE_SLACK if math.isfinite(threshold) else None
    # Every chunk gathers from the corners: make them contiguous int64 once.
    operands = replace(
        operands,
        **{
            role: tuple(
                np.ascontiguousarray(c, dtype=np.int64)
                for c in getattr(operands, role)
            )
            for role in (
                "corner4",
                "corner3_wxy",
                "corner3_wxz",
                "corner3_wyz",
                "corner3_xyz",
            )
        },
    )
    flat_scores = scores.reshape(-1)
    margins: list[list[np.ndarray]] | None = None
    n_scored = n_pruned = n_chunks = 0
    for v0 in range(0, n_valid, workspace.capacity):
        part = slice(v0, v0 + workspace.capacity)
        w, x, y, z = w_pos[part], x_pos[part], y_pos[part], z_pos[part]
        n = int(w.size)
        n_chunks += 1
        bounds = bound_kernel.quad_bounds(operands, w, x, y, z, workspace)
        cells, terms = workspace.slot(0, n)
        # A declined bound leaves the known terms unset: score_flat then
        # looks up (and range-checks) all 81.
        known = 0 if bounds is None else N_KNOWN
        if bounds is not None and limit is not None:
            keep = np.flatnonzero(bounds <= limit)
            if keep.size < n:
                n_pruned += n - int(keep.size)
                if keep.size == 0:
                    continue
                w, x, y, z = w[keep], x[keep], y[keep], z[keep]
                n = int(keep.size)
                kept_cells, kept_terms = workspace.slot(1, n)
                for cls in (0, 1):
                    np.take(
                        cells[cls, :N_KNOWN], keep, axis=1,
                        out=kept_cells[cls, :N_KNOWN], mode="clip",
                    )
                np.take(
                    terms[:N_KNOWN], keep, axis=1,
                    out=kept_terms[:N_KNOWN], mode="clip",
                )
                cells, terms = kept_cells, kept_terms
        if margins is None:
            margins = _full3_tables(operands, pairs, full3_provider)
        pos = (w, x, y, z)
        complete_quad(
            cells,
            margins,
            [(pos[i] * b + pos[j]) * b + pos[k] for i, j, k in TRIPLET_AXES],
            workspace,
        )
        rows4 = ((w * b + x) * b + y) * b + z
        flat_scores[rows4] = staged_kernel.score_flat(
            cells[0, known:], cells[1, known:], terms, workspace
        )
        n_scored += n
    return scores, RoundScoreStats(
        positions=b**4,
        valid=n_scored,
        chunks=n_chunks,
        pruned=n_pruned,
    )


def apply_score_dense(
    operands: RoundOperands,
    pairs: np.ndarray,
    score_min_fn: ScoreMinFn,
    n_real_snps: int,
) -> np.ndarray:
    """Legacy dense reference: complete + score the full grid, then mask.

    Kept bit-identical to the pre-fusion implementation; serves as the
    per-round applyScore ablation baseline and the property-test oracle
    for the compacted path.
    """
    b = operands.block_size
    wo, xo, yo, zo = operands.offsets
    w_idx = np.arange(wo, wo + b)
    x_idx = np.arange(xo, xo + b)
    y_idx = np.arange(yo, yo + b)
    z_idx = np.arange(zo, zo + b)

    # Triplets without a w axis are shared across w chunks: complete once.
    full3_xyz = [
        complete_threeway(operands.corner3_xyz[cls], pairs[cls], x_idx, y_idx, z_idx)
        for cls in (0, 1)
    ]

    cells_per_w = b * b * b * 81
    chunk_w = max(1, min(b, DENSE_CHUNK_CELLS // max(cells_per_w, 1)))

    scores = np.empty((b, b, b, b), dtype=np.float64)
    for w0 in range(0, b, chunk_w):
        w1 = min(w0 + chunk_w, b)
        tables = []
        for cls in (0, 1):
            full3_wxy = complete_threeway(
                operands.corner3_wxy[cls][w0:w1], pairs[cls], w_idx[w0:w1], x_idx, y_idx
            )
            full3_wxz = complete_threeway(
                operands.corner3_wxz[cls][w0:w1], pairs[cls], w_idx[w0:w1], x_idx, z_idx
            )
            full3_wyz = complete_threeway(
                operands.corner3_wyz[cls][w0:w1], pairs[cls], w_idx[w0:w1], y_idx, z_idx
            )
            tables.append(
                complete_quad_table(
                    operands.corner4[cls][w0:w1],
                    full3_wxy[:, :, :, None],   # (Wc, B, B, 1, 3, 3, 3)
                    full3_wxz[:, :, None, :],   # (Wc, B, 1, B, 3, 3, 3)
                    full3_wyz[:, None, :, :],   # (Wc, 1, B, B, 3, 3, 3)
                    full3_xyz[cls][None],       # (1, B, B, B, 3, 3, 3)
                )
            )
        scores[w0:w1] = score_min_fn(tables[0], tables[1], order=4)

    mask = round_validity_mask(operands.offsets, b, n_real_snps)
    scores[~mask] = np.inf
    return scores
