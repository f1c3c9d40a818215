"""Candidate-solution encoding (paper §3.5).

The indexes of a quad of SNPs are packed into a single 64-bit integer —
16 bits per index, most-significant field first — so a candidate travels
through the reduction as one word.  The 16-bit fields cap the addressable
SNP count at 65536 (the paper: up to 768.54 peta combinations).

Packing is monotone: comparing packed values compares quads
lexicographically, so "minimum packed index" is a deterministic tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

#: Largest SNP index a packed solution can carry.
MAX_SNP_INDEX = 65535

#: Combinations addressable at fourth order with 16-bit indices
#: (the paper's "768.54 peta").
MAX_ADDRESSABLE_COMBINATIONS = comb(MAX_SNP_INDEX + 1, 4)


def pack_quad(w: int, x: int, y: int, z: int) -> int:
    """Pack four SNP indices into one 64-bit integer."""
    for name, v in (("w", w), ("x", x), ("y", y), ("z", z)):
        if not 0 <= v <= MAX_SNP_INDEX:
            raise ValueError(
                f"index {name}={v} outside the 16-bit field [0, {MAX_SNP_INDEX}]"
            )
    return (w << 48) | (x << 32) | (y << 16) | z


def unpack_quad(packed: int) -> tuple[int, int, int, int]:
    """Inverse of :func:`pack_quad`."""
    packed = int(packed)
    if not 0 <= packed < (1 << 64):
        raise ValueError(f"packed value {packed} is not a 64-bit integer")
    return (
        (packed >> 48) & 0xFFFF,
        (packed >> 32) & 0xFFFF,
        (packed >> 16) & 0xFFFF,
        packed & 0xFFFF,
    )


def pack_quads_array(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`pack_quad` over index arrays (broadcasting)."""
    w64, x64, y64, z64 = (
        np.asarray(a, dtype=np.uint64) for a in np.broadcast_arrays(w, x, y, z)
    )
    return (
        (w64 << np.uint64(48))
        | (x64 << np.uint64(32))
        | (y64 << np.uint64(16))
        | z64
    )


@dataclass(frozen=True, order=True)
class Solution:
    """A scored quad of SNPs.

    Ordering is by ``(score, packed quad)``, so ``min()`` over solutions
    implements the paper's reduction (best score, lexicographic tie-break).
    """

    score: float
    packed: int

    @classmethod
    def from_quad(cls, quad: tuple[int, int, int, int], score: float) -> "Solution":
        return cls(score=float(score), packed=pack_quad(*quad))

    @classmethod
    def worst(cls) -> "Solution":
        """The identity element of the reduction (+inf score)."""
        return cls(score=float("inf"), packed=(1 << 64) - 1)

    @property
    def quad(self) -> tuple[int, int, int, int]:
        return unpack_quad(self.packed)

    def to_pair(self) -> list:
        """``[score, packed]`` — the canonical JSON wire form shared by
        the journal and the shard artifacts.

        ``json.dumps`` serializes the float via ``repr`` (shortest
        round-trip), so the pair survives a JSON round-trip bit-exactly —
        the property every resume/merge bit-identity guarantee rests on.
        """
        return [self.score, self.packed]

    @classmethod
    def from_pair(cls, pair: "Sequence[float | int]") -> "Solution":
        """Inverse of :meth:`to_pair` (accepts any 2-sequence)."""
        score, packed = pair
        return cls(score=float(score), packed=int(packed))

    def __repr__(self) -> str:
        return f"Solution(quad={self.quad}, score={self.score:.6f})"
