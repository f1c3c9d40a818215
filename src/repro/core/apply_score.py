"""``applyScore``: completion + scoring + masking for one evaluation round.

Takes the per-class fourth-order corners (16 counts/quad from the tensor
GEMM) and the third-order corner slices for the four contained triplets,
completes everything to full 81-cell tables per class (§3.3), scores every
*useful* quad, and marks non-useful positions (repeated/unsorted quads and
padding) with ``+inf``.

Two implementations are provided:

:func:`score_round` (the default, *fused* path)
    **Mask-first compaction**: the validity mask is computed *before* any
    completion, the valid positions are gathered into a flat compacted
    batch, and only those are completed and scored.  Diagonal rounds —
    where most of the ``B^4`` grid is repeated/unsorted — skip the vast
    majority of the completion and scoring arithmetic entirely.

    **Cross-round completed-triplet reuse**: the full 27-cell third-order
    tables are requested through a pluggable ``full3_provider``.  The table
    for a block triple is a pure function of the (sorted) block offsets —
    the same pair sweep sliced at the same tail block, completed with the
    same global indices — regardless of which *role* (``wxy``/``wxz``/
    ``wyz``/``xyz``) the triple plays in a round, so the search wires the
    provider to the byte-accounted
    :class:`~repro.core.operand_cache.OperandCache` under keys
    ``("full3", cls, a, b, c)`` and each triplet is completed **once per
    sweep** instead of once per round.  Within a single round, duplicate
    roles (diagonal rounds share block triples between roles) are deduped
    locally before the provider is consulted.

    **Bound-first branch-and-bound gate**: when a
    :class:`~repro.scoring.bounds.K2BoundKernel` and a top-k threshold
    callable are supplied, every mask-valid position's admissible K2
    lower bound is evaluated from the already-materialized corner counts
    *before* completion, and positions that provably cannot beat the
    current ``TopKReducer.kth_score()`` are dropped — no third-order
    gathers, no 81-cell completion, no staged-lgamma work.  Pruned
    positions surface as ``+inf`` exactly like masked ones, so the final
    top-k stays bit-identical to the exhaustive run.

    **Staged-lgamma scoring**: a
    :class:`~repro.scoring.k2.StagedK2Kernel` gathers scores directly
    from pre-shifted lgamma views on the int64 count arrays and reduces
    them in one pass — bit-identical to the reference
    :class:`~repro.scoring.k2.K2Score` (same float lookups, same
    elementwise ``a - b - c``, same trailing-axis sum), without the
    integer ``n + k`` index temporaries.

:func:`apply_score_dense` (the legacy reference)
    Completes and scores the full ``B^4 x 81`` grid, then masks.  Kept
    bit-identical to the pre-fusion implementation as the per-round
    reference the fused path is tested and benchmarked against.

Memory stays bounded in both paths by chunking — along ``w`` in the dense
path, along the compacted position axis in the fused path — mirroring how
the CUDA kernel never materializes all 81 counts for a whole round at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scoring.bounds import K2BoundKernel
    from repro.scoring.k2 import StagedK2Kernel

from repro.contingency.complete import complete_quad
from repro.core.threeway import complete_threeway
from repro.scoring.bounds import PRUNE_SLACK

#: Default cap on materialized table cells per chunk (per class), in cells.
DEFAULT_MAX_CHUNK_CELLS = 32 * 1024 * 1024

#: ``full3_provider`` signature: ``(cls, (a, b, c) block offsets, factory)
#: -> (table, served_from_cache)``.
Full3Provider = Callable[
    [int, tuple[int, int, int], Callable[[], np.ndarray]],
    tuple[np.ndarray, bool],
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
        chunks: compacted chunks processed.
        full3_requests: unique ``(class, block-triple)`` completed-table
            requests this round (duplicate roles deduped locally first).
        full3_computed: requests that executed a third-order completion.
        full3_cache_hits: requests served by the provider's cache.
        pruned: mask-valid positions dropped by the admissible-bound gate
            before completion (their lower bound exceeded the top-k
            threshold, so they provably cannot enter the final top-k).
    """

    positions: int
    valid: int
    chunks: int
    full3_requests: int
    full3_computed: int
    full3_cache_hits: int
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


def _full3_tables(
    operands: RoundOperands,
    pairs: np.ndarray,
    full3_provider: Full3Provider | None,
) -> tuple[dict[str, list[np.ndarray]], int, int, int]:
    """All four completed third-order tables per class, deduped + cached.

    The completed table for a block triple depends only on its (already
    non-decreasing) block offsets: the corner slice is the same sweep GEMM
    output and the completion gathers the same global pair tables whichever
    role the triple plays.  Diagonal rounds therefore resolve several roles
    to one table, and the provider (when given) shares tables across
    rounds.

    Returns:
        ``(tables, requests, computed, cache_hits)`` where ``tables[role]``
        is the per-class list of ``(B, B, B, 3, 3, 3)`` tables.
    """
    b = operands.block_size
    wo, xo, yo, zo = operands.offsets
    w_idx = np.arange(wo, wo + b)
    x_idx = np.arange(xo, xo + b)
    y_idx = np.arange(yo, yo + b)
    z_idx = np.arange(zo, zo + b)

    roles: dict[str, tuple[tuple[int, int, int], tuple, tuple]] = {
        "wxy": ((wo, xo, yo), operands.corner3_wxy, (w_idx, x_idx, y_idx)),
        "wxz": ((wo, xo, zo), operands.corner3_wxz, (w_idx, x_idx, z_idx)),
        "wyz": ((wo, yo, zo), operands.corner3_wyz, (w_idx, y_idx, z_idx)),
        "xyz": ((xo, yo, zo), operands.corner3_xyz, (x_idx, y_idx, z_idx)),
    }

    local: dict[tuple[int, tuple[int, int, int]], np.ndarray] = {}
    requests = computed = cache_hits = 0
    tables: dict[str, list[np.ndarray]] = {}
    for role, (triple, corners, indices) in roles.items():
        per_class: list[np.ndarray] = []
        for cls in (0, 1):
            memo_key = (cls, triple)
            table = local.get(memo_key)
            if table is None:
                corner = corners[cls]
                pairs_cls = pairs[cls]
                a_idx, b_idx, c_idx = indices

                def factory(
                    corner=corner,
                    pairs_cls=pairs_cls,
                    a_idx=a_idx,
                    b_idx=b_idx,
                    c_idx=c_idx,
                ) -> np.ndarray:
                    return complete_threeway(
                        corner, pairs_cls, a_idx, b_idx, c_idx
                    )

                requests += 1
                if full3_provider is None:
                    table = factory()
                    hit = False
                else:
                    table, hit = full3_provider(cls, triple, factory)
                if hit:
                    cache_hits += 1
                else:
                    computed += 1
                local[memo_key] = table
            per_class.append(table)
        tables[role] = per_class
    return tables, requests, computed, cache_hits


def score_round(
    operands: RoundOperands,
    pairs: np.ndarray,
    staged_kernel: "StagedK2Kernel",
    n_real_snps: int,
    *,
    max_chunk_cells: int = DEFAULT_MAX_CHUNK_CELLS,
    full3_provider: Full3Provider | None = None,
    bound_kernel: "K2BoundKernel | None" = None,
    prune_threshold: Callable[[], float] | None = None,
) -> tuple[np.ndarray, RoundScoreStats]:
    """Fused mask-first scoring of one round (see module docstring).

    Args:
        operands: the round's tensor outputs, see :class:`RoundOperands`.
        pairs: ``(2, M, M, 3, 3)`` full pairwise tables (both classes).
        staged_kernel: the :class:`~repro.scoring.k2.StagedK2Kernel` that
            scores the completed tables (K2, lower is better).
        n_real_snps: unpadded SNP count (padding exclusion).
        max_chunk_cells: bound on materialized 81-cell-table cells per
            class per chunk; controls peak memory.
        full3_provider: optional cross-round completed-triplet cache hook
            (see :data:`Full3Provider`).
        bound_kernel: optional
            :class:`~repro.scoring.bounds.K2BoundKernel`; enables the
            branch-and-bound gate between mask compaction and completion.
        prune_threshold: zero-argument callable returning the current
            top-k threshold (``TopKReducer.kth_score``-style: ``+inf``
            disables).  Mask-valid positions whose admissible lower bound
            exceeds it are dropped before any third-order gather or
            staged-lgamma work; pruned positions stay ``+inf`` in the
            returned grid, exactly like masked ones, so the reduction is
            oblivious to pruning.

    Returns:
        ``(scores, stats)`` — the ``(B, B, B, B)`` float64 grid with
        ``+inf`` at masked positions, and the round's
        :class:`RoundScoreStats`.
    """
    b = operands.block_size
    mask = round_validity_mask(operands.offsets, b, n_real_snps)
    w_pos, x_pos, y_pos, z_pos = np.nonzero(mask)
    n_valid = int(w_pos.size)
    scores = np.full((b, b, b, b), np.inf, dtype=np.float64)
    if n_valid == 0:
        return scores, RoundScoreStats(
            positions=b**4, valid=0, chunks=0,
            full3_requests=0, full3_computed=0, full3_cache_hits=0,
        )

    n_pruned = 0
    if bound_kernel is not None and prune_threshold is not None:
        threshold = float(prune_threshold())
        if np.isfinite(threshold):
            bounds = bound_kernel.quad_bounds(
                operands, w_pos, x_pos, y_pos, z_pos
            )
            if bounds is not None:
                # Strictly-above-threshold only (plus FP slack): ties are
                # kept, so the admissible bound can never drop a quad the
                # exhaustive reduction would have ranked.
                keep = bounds <= threshold + PRUNE_SLACK
                n_pruned = n_valid - int(keep.sum())
                if n_pruned:
                    w_pos = w_pos[keep]
                    x_pos = x_pos[keep]
                    y_pos = y_pos[keep]
                    z_pos = z_pos[keep]
                    n_valid = int(w_pos.size)
                if n_valid == 0:
                    return scores, RoundScoreStats(
                        positions=b**4, valid=0, chunks=0,
                        full3_requests=0, full3_computed=0,
                        full3_cache_hits=0, pruned=n_pruned,
                    )

    full3, requests, computed, hits = _full3_tables(
        operands, pairs, full3_provider
    )
    # Flat row views: one gather per operand with one flat index per
    # position (``w*B^3 + x*B^2 + y*B + z`` into ``B^4`` rows, ``a*B^2 +
    # b*B + c`` into a triplet's ``B^3`` rows).
    corner4 = [operands.corner4[cls].reshape(-1, 2, 2, 2, 2) for cls in (0, 1)]
    f_wxy, f_wxz, f_wyz, f_xyz = (
        [table.reshape(-1, 3, 3, 3) for table in full3[role]]
        for role in ("wxy", "wxz", "wyz", "xyz")
    )
    wx = w_pos * b + x_pos
    rows_wxy = wx * b + y_pos
    rows_wxz = wx * b + z_pos
    rows_wyz = (w_pos * b + y_pos) * b + z_pos
    rows_xyz = (x_pos * b + y_pos) * b + z_pos
    rows4 = rows_wxy * b + z_pos

    chunk = max(1, max_chunk_cells // 81)
    flat_scores = np.empty(n_valid, dtype=np.float64)
    n_chunks = 0
    for v0 in range(0, n_valid, chunk):
        v1 = min(v0 + chunk, n_valid)
        n_chunks += 1
        part = slice(v0, v1)
        tables = [
            complete_quad(
                np.take(corner4[cls], rows4[part], axis=0),   # (V, 2, 2, 2, 2)
                np.take(f_wxy[cls], rows_wxy[part], axis=0),  # (V, 3, 3, 3)
                np.take(f_wxz[cls], rows_wxz[part], axis=0),
                np.take(f_wyz[cls], rows_wyz[part], axis=0),
                np.take(f_xyz[cls], rows_xyz[part], axis=0),
            )
            for cls in (0, 1)
        ]
        n = v1 - v0
        flat_scores[v0:v1] = staged_kernel.score_flat(
            tables[0].reshape(n, -1), tables[1].reshape(n, -1)
        )
    scores.reshape(-1)[rows4] = flat_scores
    return scores, RoundScoreStats(
        positions=b**4,
        valid=n_valid,
        chunks=n_chunks,
        full3_requests=requests,
        full3_computed=computed,
        full3_cache_hits=hits,
        pruned=n_pruned,
    )


def apply_score_dense(
    operands: RoundOperands,
    pairs: np.ndarray,
    score_min_fn: ScoreMinFn,
    n_real_snps: int,
    *,
    max_chunk_cells: int = DEFAULT_MAX_CHUNK_CELLS,
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
    chunk_w = max(1, min(b, max_chunk_cells // max(cells_per_w, 1)))

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
                complete_quad(
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
