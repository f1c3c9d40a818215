"""Abstract binary tensor engine and engine registry.

An engine consumes two :class:`~repro.bitops.BitMatrix` operands and returns
the ``(R_a, R_b)`` integer matrix of AND-popcounts — the genotype
co-occurrence counts at the heart of contingency-table construction.  How it
gets there differs per microarchitecture model:

- :class:`~repro.tensor.AndPopcEngine` counts matches directly (Ampere's
  fused ``AND+POPC``);
- :class:`~repro.tensor.XorPopcEngine` produces mismatch counts (Turing's
  fused ``XOR+POPC``) and translates them (§3.4).

Engines are pure compute: operation *accounting* (for the performance model)
is done by the device layer from the GEMM shapes each call reports via
:attr:`BinaryTensorEngine.last_shapes`.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.bitops.bitmatrix import BitMatrix
from repro.tensor.gemm_packed import DEFAULT_BLOCK_BYTES

#: Execution paths shared by all engines.
EXECUTION_MODES = ("dense", "packed")


@dataclass(frozen=True)
class GemmShape:
    """Shape of one binary GEMM *launch*: ``(m, n)`` rows and ``k`` bits.

    ``batch`` counts the logical GEMM problems fused into the launch
    (``matmul_popcount_batch`` stacks operands, so one launch can carry
    many problems).  ``m``/``n`` describe the fused problem, so
    ``fused_ops`` already equals the sum over the batched problems; the
    batch dimension exists so the §3.3 performance model can charge
    per-launch overhead separately from FLOPs.
    """

    m: int
    n: int
    k_bits: int
    batch: int = 1

    @property
    def fused_ops(self) -> int:
        """Fused binary ops of the un-quantized problem (1 fused op = 2 ops)."""
        return 2 * self.m * self.n * self.k_bits


class BinaryTensorEngine(abc.ABC):
    """Base class for binary tensor-GEMM engines.

    Args:
        mode: ``"dense"`` (BLAS matmul of 0/1 float operands — the fast
            path) or ``"packed"`` (blocked popcount over uint64 words —
            the reference path).  Both produce identical integers.  A
            dense operand is formed for its one GEMM, from the operand's
            float32 planes when it carries them (else by a one-pass
            unpack), and freed after it; the engine caches nothing.
        block_bytes: intermediate-buffer budget per packed-GEMM block (the
            tiling knob of :mod:`repro.tensor.gemm_packed`); ignored by the
            dense path.
    """

    #: Human-readable engine name; subclasses override.
    name: str = "abstract"
    #: Operation the hardware model fuses with POPC ("and" or "xor").
    native_op: str = "none"

    def __init__(
        self, mode: str = "dense", block_bytes: int = DEFAULT_BLOCK_BYTES
    ) -> None:
        if mode not in EXECUTION_MODES:
            raise ValueError(f"mode must be one of {EXECUTION_MODES}, got {mode!r}")
        if block_bytes < 1:
            raise ValueError(f"block_bytes must be >= 1, got {block_bytes}")
        self.mode = mode
        #: Packed-path tiling budget.
        self.block_bytes = int(block_bytes)
        #: Shapes of GEMMs launched since the last :meth:`reset_shapes` call.
        self.last_shapes: list[GemmShape] = []

    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def matmul_popcount(self, a: BitMatrix, b: BitMatrix) -> np.ndarray:
        """Return ``C[i, j] = POPC(a_i AND b_j)`` as an ``(R_a, R_b)`` int64
        matrix, by whatever native operation the modelled hardware supports.
        """

    def matmul_popcount_batch(
        self, pairs: list[tuple[BitMatrix, BitMatrix]]
    ) -> list[np.ndarray]:
        """Execute many GEMM problems in as few fused launches as possible.

        Consecutive pairs sharing the *same* left operand object are fused
        by stacking their right operands into one tall operand (one wide
        GEMM); consecutive pairs sharing the same right operand are fused by
        stacking lefts.  On the dense path the stack is a single block GEMM;
        on the packed path the stacked operand flows through the existing
        blocked loop, i.e. a fused blocked sweep over the whole batch under
        the ``block_bytes`` budget.  One :class:`GemmShape` with
        ``batch == len(group)`` is recorded per fused launch so the device
        layer can charge launch overhead separately from FLOPs.

        Results are bit-identical to per-pair :meth:`matmul_popcount` calls:
        the dense accumulators are integer-exact regardless of BLAS blocking,
        and the packed/XOR paths are element-wise on stacked rows.
        """
        results: list[np.ndarray | None] = [None] * len(pairs)
        for axis, indices in _plan_batch_groups(pairs):
            if len(indices) == 1:
                i = indices[0]
                results[i] = self.matmul_popcount(*pairs[i])
                continue
            if axis == "left":
                a = pairs[indices[0]][0]
                rights = [pairs[i][1] for i in indices]
                fused = self.matmul_popcount(a, BitMatrix.vstack(rights))
                self._rebatch_last_shape(len(indices))
                col = 0
                for i, right in zip(indices, rights):
                    results[i] = fused[:, col : col + right.n_rows]
                    col += right.n_rows
            else:
                b = pairs[indices[0]][1]
                lefts = [pairs[i][0] for i in indices]
                fused = self.matmul_popcount(BitMatrix.vstack(lefts), b)
                self._rebatch_last_shape(len(indices))
                row = 0
                for i, left in zip(indices, lefts):
                    results[i] = fused[row : row + left.n_rows]
                    row += left.n_rows
        return results

    # ------------------------------------------------------------------ #
    # Accounting hooks

    def _record(self, a: BitMatrix, b: BitMatrix) -> None:
        self.last_shapes.append(GemmShape(m=a.n_rows, n=b.n_rows, k_bits=a.n_bits))

    def _rebatch_last_shape(self, batch: int) -> None:
        """Mark the most recent recorded launch as carrying ``batch`` fused
        problems (the stacked call itself recorded it with ``batch == 1``)."""
        self.last_shapes[-1] = dataclasses.replace(
            self.last_shapes[-1], batch=batch
        )

    def reset_shapes(self) -> None:
        """Forget recorded GEMM shapes (called by the device layer)."""
        self.last_shapes = []

    def __repr__(self) -> str:
        return f"{type(self).__name__}(mode={self.mode!r})"


def _plan_batch_groups(
    pairs: list[tuple[BitMatrix, BitMatrix]],
) -> list[tuple[str, list[int]]]:
    """Greedy fusion plan over a pair list: maximal runs of consecutive
    pairs sharing a left (``"left"`` groups) or right (``"right"`` groups)
    operand *object*.  Identity, not equality — only genuinely reused
    operands (e.g. one ``wx`` against many ``yz``) may share a launch, and
    only when bit widths agree (never fuse across K)."""
    groups: list[tuple[str, list[int]]] = []
    i, n = 0, len(pairs)
    while i < n:
        a, b = pairs[i]
        j = i + 1
        while j < n and pairs[j][0] is a and pairs[j][1].n_bits == b.n_bits:
            j += 1
        if j - i > 1:
            groups.append(("left", list(range(i, j))))
            i = j
            continue
        j = i + 1
        while j < n and pairs[j][1] is b and pairs[j][0].n_bits == a.n_bits:
            j += 1
        groups.append(("right", list(range(i, j))))
        i = j
    return groups


def make_engine(
    kind: str, mode: str = "dense", block_bytes: int = DEFAULT_BLOCK_BYTES
) -> BinaryTensorEngine:
    """Engine factory.

    Args:
        kind: ``"and_popc"`` (Ampere-style) or ``"xor_popc"`` (Turing-style).
        mode: execution path, see :class:`BinaryTensorEngine`.
        block_bytes: packed-path tiling budget, see
            :class:`BinaryTensorEngine`.
    """
    from repro.tensor.and_popc import AndPopcEngine
    from repro.tensor.xor_popc import XorPopcEngine

    kinds = {"and_popc": AndPopcEngine, "xor_popc": XorPopcEngine}
    if kind not in kinds:
        raise ValueError(f"kind must be one of {sorted(kinds)}, got {kind!r}")
    return kinds[kind](mode=mode, block_bytes=block_bytes)
