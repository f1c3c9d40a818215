"""Device-memory budgeting for a search (§3.3's design constraint, live).

The paper's central memory argument: the single-phase third-order strategy
needs ``O(C(M,3))`` storage, while Epi4Tensor's three-phase construction
keeps the working set to the active sweeps.  This module itemizes the
device-resident footprint of a configured search — dataset planes, lgamma
table, low-order tables, the three live 3-way sweep corners, the combined
operands and the 4-way corner/score buffers — so a search can be checked
against a GPU's memory *before* it runs, and refuses configurations that
cannot fit (the same failure the paper reports for [15] at large ``M``).

:func:`held_operand_bytes` sizes the 3-way sweeps the simulator's host
side holds for one outer iteration: ``O(B * M^2)``, far below the
single-phase ``O(M^3)``.  They are not part of the paper's device design,
which keeps three live sweeps, so :func:`estimate_search_memory` does not
charge them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from repro.bitops.combine import combined_nbytes
from repro.device.specs import GPUSpec
from repro.scoring.workspace import (
    CHUNK_POSITIONS,
    term_table_bytes,
    workspace_bytes,
)


class DeviceMemoryError(MemoryError):
    """A search configuration does not fit the target device's memory."""


@dataclass(frozen=True)
class DeviceMemoryEstimate:
    """Itemized per-device memory footprint of one search.

    Attributes:
        components: bytes by component name.
        total_bytes: sum over components.
    """

    components: dict[str, int]

    @property
    def total_bytes(self) -> int:
        return sum(self.components.values())

    @property
    def total_gb(self) -> float:
        return self.total_bytes / 1e9

    def format(self) -> str:
        """Human-readable breakdown, largest first."""
        lines = [
            f"  {name:<22s} {size / 1e6:10.1f} MB"
            for name, size in sorted(
                self.components.items(), key=lambda kv: -kv[1]
            )
        ]
        lines.append(f"  {'total':<22s} {self.total_bytes / 1e6:10.1f} MB")
        return "\n".join(lines)


def cache_working_set_bytes(
    n_snps: int, n_controls: int, n_cases: int, block_size: int
) -> int:
    """Total bytes of every cacheable round operand (both classes).

    The round-operand cache (:mod:`repro.core.operand_cache`) stores, per
    unordered block pair ``(Ai <= Bi)`` and class: the ``4*B^2``-row
    combined bit-matrix and the int32 ``(B, B, M - Bi*B, 2, 2, 2)``
    third-order sweep corners.  This sum is the cache's maximum resident
    set — an *unbounded* cache budget is capped here, so the §3.3 memory
    check never has to reason about ``inf``.
    """
    if min(n_snps, n_controls, n_cases, block_size) <= 0:
        raise ValueError("all dimensions must be positive")
    m, b = n_snps, block_size
    nb = m // b
    # Both classes, packed u64 — sized by the real operand format.
    combine_bytes = combined_nbytes(b, n_controls) + combined_nbytes(b, n_cases)
    total = 0
    for bi in range(nb):
        n_pairs = bi + 1  # pairs (ai <= bi) ending at this block
        tail = m - bi * b
        sweep_bytes = 2 * (b * b * tail * 8) * 4  # both classes, 8 corners, i32
        total += n_pairs * (combine_bytes + sweep_bytes)
    return total


def triplet_working_set_bytes(n_snps: int, block_size: int) -> int:
    """Total bytes of every cacheable completed third-order table.

    The cross-round triplet cache (``("full3", cls, a, b, c)`` entries in
    :mod:`repro.core.operand_cache`) stores one completed ``(B, B, B, 27)``
    int32 table per class per unordered block triple ``(ai <= bi <= ci)``.
    Like :func:`cache_working_set_bytes`, this bounds the cache's maximum
    resident set for the §3.3 memory check.
    """
    if min(n_snps, block_size) <= 0:
        raise ValueError("all dimensions must be positive")
    nb = n_snps // block_size
    return 2 * comb(nb + 2, 3) * block_size**3 * 27 * 4


def held_operand_bytes(n_snps: int, block_size: int) -> int:
    """Peak bytes of the per-``Wi`` sweep hold (both classes).

    One outer iteration ``Wi`` holds the int32 ``(B, B, M - b*B, 2, 2, 2)``
    3-way sweeps ``(Wi, b)`` for every ``b >= Wi``.  They shrink as ``Wi``
    grows, so the first iteration holds the most — every sweep ``(0, b)``,
    ``O(B * M^2)`` bytes, against the single-phase scheme's ``O(M^3)`` —
    and holds exactly this once its last pair is staged.
    """
    if min(n_snps, block_size) <= 0:
        raise ValueError("all dimensions must be positive")
    m, b = n_snps, block_size
    return sum(2 * (b * b * (m - bi * b) * 8) * 4 for bi in range(m // b))


def estimate_search_memory(
    n_snps: int,
    n_controls: int,
    n_cases: int,
    block_size: int,
    *,
    cache_budget_bytes: float = 0,
    batch_rounds: int = 1,
) -> DeviceMemoryEstimate:
    """Per-device footprint of a fourth-order search (§3.6: every GPU holds
    the full dataset, lgamma table and low-order tables).

    Args:
        n_snps: padded SNP count ``M``.
        n_controls / n_cases: class sizes.
        block_size: ``B``.
        cache_budget_bytes: round-operand cache budget.  ``0`` = caching
            disabled (no component); ``float("inf")`` = unbounded, charged
            at the full :func:`cache_working_set_bytes`.  A finite budget
            is charged at ``min(budget, working set)``.  The cacheable
            working set includes the completed third-order tables
            (:func:`triplet_working_set_bytes`) of the fused
            ``applyScore``'s cross-round triplet reuse.
        batch_rounds: rounds fused per batched GEMM launch group.  Above
            1, the round stager double-buffers a group's ``yz`` operands
            and 4-way corner outputs (prepare ``r+1`` while ``r`` scores),
            so that working set is charged twice.

    Returns:
        A :class:`DeviceMemoryEstimate`.
    """
    if min(n_snps, n_controls, n_cases, block_size) <= 0:
        raise ValueError("all dimensions must be positive")
    m, b = n_snps, block_size
    words0 = (n_controls + 63) // 64
    words1 = (n_cases + 63) // 64
    n = n_controls + n_cases

    components = {
        # 2 bit-plane rows per SNP per class, packed.
        "dataset planes": 8 * 2 * m * (words0 + words1),
        # lgamma LUT over 0..N+2 doubles (§3.5).
        "lgamma table": 8 * (n + 3),
        # indivPop (int64) + pairwPop (int32), both classes.
        "low-order tables": 8 * 2 * m * 3 + 4 * 2 * m * m * 9,
        # Three live 3-way sweeps of (B, B, <=M) 8-cell int32 corners x2
        # classes (wx at the X level, wy + xy at the Y level).
        "3-way sweep corners": 3 * 2 * (b * b * m * 8) * 4,
        # Combined operands alive at once: wx, wy, xy, yz per class.
        "combined operands": 8 * 4 * 2 * (4 * b * b) * max(words0, words1),
        # 4-way corners for one round: (B^4, 16) per class, int64.
        "4-way corners": 8 * 2 * b**4 * 16,
        # applyScore kernel: the fixed chunk workspace plus the per-run
        # K2 term table (0 above its size gate; see scoring.workspace).
        "score tables": workspace_bytes(CHUNK_POSITIONS)
        + term_table_bytes(n_controls, n_cases),
        # Round score grid (float64) + reduction buffers.
        "score grid": 8 * b**4,
    }
    if batch_rounds < 1:
        raise ValueError(f"batch_rounds must be >= 1, got {batch_rounds}")
    if batch_rounds > 1:
        # Double-buffered round stager: two groups of `batch_rounds`
        # rounds may be resident at once, each holding both classes'
        # yz-combined operands and 4-way corner outputs.
        per_round = (
            8 * 2 * (4 * b * b) * max(words0, words1)  # yz operands
            + 8 * 2 * b**4 * 16  # 4-way corners
        )
        components["round stager"] = 2 * batch_rounds * per_round
    if cache_budget_bytes < 0:
        raise ValueError(
            f"cache_budget_bytes must be >= 0, got {cache_budget_bytes}"
        )
    if cache_budget_bytes > 0:
        working_set = cache_working_set_bytes(
            n_snps, n_controls, n_cases, block_size
        ) + triplet_working_set_bytes(n_snps, block_size)
        components["operand cache"] = int(min(cache_budget_bytes, working_set))
    return DeviceMemoryEstimate(components=components)


def check_fits(
    spec: GPUSpec,
    estimate: DeviceMemoryEstimate,
    *,
    reserve_fraction: float = 0.05,
) -> None:
    """Raise :class:`DeviceMemoryError` if the search exceeds device memory.

    Args:
        spec: target GPU.
        estimate: output of :func:`estimate_search_memory`.
        reserve_fraction: memory held back for the runtime/driver.
    """
    if not 0 <= reserve_fraction < 1:
        raise ValueError(
            f"reserve_fraction must be in [0, 1), got {reserve_fraction}"
        )
    budget = spec.memory_gb * 1e9 * (1.0 - reserve_fraction)
    if estimate.total_bytes > budget:
        raise DeviceMemoryError(
            f"search needs {estimate.total_gb:.2f} GB but {spec.name} offers "
            f"{budget / 1e9:.2f} GB (of {spec.memory_gb} GB):\n"
            f"{estimate.format()}"
        )
