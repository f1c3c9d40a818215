"""Packed bit-matrix: the fundamental operand of the binary tensor engines.

A :class:`BitMatrix` stores ``R`` rows of ``K`` bits each, packed
little-endian into ``uint64`` words (bit ``i`` of word ``j`` is logical bit
``64*j + i``).  Rows play the role of the matrix rows fed to the 1-bit WMMA
fragments in the paper's CUDA kernels; the bit (sample) dimension is the
GEMM ``K`` dimension.

Bits past ``n_bits`` in the last word are guaranteed to be zero; every
operation preserves that invariant so AND-popcounts never see garbage and the
XOR+POPC translation layer stays exact.

A matrix may also carry :class:`~repro.bitops.planes.PlaneRows`: the recipe
for its float32 form from a class's float32 genotype planes.  The dense
GEMM path then forms its operand from the planes instead of unpacking the
packed words; both forms hold the same 0/1 values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.bitops.planes import PlaneRows
from repro.bitops.popcount import popcount_rows

#: Bits per packed word.
WORD_BITS = 64


def words_for_bits(n_bits: int) -> int:
    """Number of 64-bit words needed to store ``n_bits`` bits."""
    return (n_bits + WORD_BITS - 1) // WORD_BITS


@dataclass(frozen=True)
class BitMatrix:
    """``R x K`` binary matrix packed into ``(R, W)`` ``uint64`` words,
    optionally with the float32 :class:`PlaneRows` its dense form is read
    from."""

    data: np.ndarray
    n_bits: int
    planes: PlaneRows | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        d = np.asarray(self.data)
        if d.ndim != 2 or d.dtype != np.uint64:
            raise ValueError(
                f"data must be a 2-D uint64 array, got shape {d.shape} dtype {d.dtype}"
            )
        if self.n_bits < 0:
            raise ValueError(f"n_bits must be >= 0, got {self.n_bits}")
        if d.shape[1] != words_for_bits(self.n_bits):
            raise ValueError(
                f"{d.shape[1]} words cannot hold exactly {self.n_bits} bits "
                f"(expected {words_for_bits(self.n_bits)})"
            )
        if self.planes is not None and (
            self.planes.n_rows != d.shape[0]
            or self.planes.planes.shape[1] != self.n_bits
        ):
            raise ValueError(
                f"planes describe {self.planes.n_rows} rows of "
                f"{self.planes.planes.shape[1]} bits, not {d.shape[0]} of "
                f"{self.n_bits}"
            )
        object.__setattr__(self, "data", np.ascontiguousarray(d))

    # ------------------------------------------------------------------ #
    # Construction / conversion

    @classmethod
    def from_bool(cls, rows: np.ndarray) -> "BitMatrix":
        """Pack a ``(R, K)`` boolean (or 0/1) array into a BitMatrix."""
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
        r, k = rows.shape
        w = words_for_bits(k)
        packed_bytes = np.packbits(rows.astype(np.uint8), axis=1, bitorder="little")
        padded = np.zeros((r, w * 8), dtype=np.uint8)
        padded[:, : packed_bytes.shape[1]] = packed_bytes
        return cls(data=padded.view(np.uint64), n_bits=k)

    @classmethod
    def zeros(cls, n_rows: int, n_bits: int) -> "BitMatrix":
        """An all-zero bit-matrix."""
        return cls(
            data=np.zeros((n_rows, words_for_bits(n_bits)), dtype=np.uint64),
            n_bits=n_bits,
        )

    @classmethod
    def vstack(cls, matrices: list["BitMatrix"]) -> "BitMatrix":
        """Row-concatenate matrices of identical bit width.

        This is how ``matmul_popcount_batch`` builds the stacked operand of
        a fused launch; the packed layout concatenates without re-packing.
        """
        if not matrices:
            raise ValueError("vstack needs at least one matrix")
        n_bits = matrices[0].n_bits
        for m in matrices[1:]:
            if m.n_bits != n_bits:
                raise ValueError(
                    f"cannot vstack differing bit widths: {m.n_bits} vs {n_bits}"
                )
        if len(matrices) == 1:
            return matrices[0]
        first, *rest = [m.planes for m in matrices]
        planes = None
        if first is not None and None not in rest:
            planes = first.stacked(rest)
        return cls(
            data=np.concatenate([m.data for m in matrices], axis=0),
            n_bits=n_bits,
            planes=planes,
        )

    def with_float_planes(self) -> "BitMatrix":
        """The same bits, carrying their float32 planes: one unpack, held
        for the matrix's lifetime, that every operand combined or sliced
        from it forms its dense GEMM operand from."""
        planes = self._unpack(np.float32)
        planes.setflags(write=False)
        return BitMatrix(self.data, self.n_bits, PlaneRows.whole(planes))

    def _unpack(self, dtype: np.dtype | type) -> np.ndarray:
        """One-pass unpack to a fresh ``(R, K)`` 0/1 array of ``dtype``."""
        bits = np.unpackbits(
            self.data.view(np.uint8), axis=1, count=self.n_bits, bitorder="little"
        )
        return bits.astype(dtype)

    def to_bool(self) -> np.ndarray:
        """Unpack to a ``(R, K)`` boolean array."""
        return self._unpack(np.bool_)

    def dense_operand(self, dtype: np.dtype | type = np.float32) -> np.ndarray:
        """Unpacked ``(R, K)`` 0/1 matrix of ``dtype`` — the dense-GEMM
        operand form, formed for one GEMM and never cached.

        A matrix carrying float32 :attr:`planes` forms its float32 operand
        from them (a broadcast multiply, or a view for a plain slice) and
        never unpacks.
        """
        dtype = np.dtype(dtype)
        if self.planes is not None and self.planes.planes.dtype == dtype:
            return self.planes.dense()
        return self._unpack(dtype)

    # ------------------------------------------------------------------ #
    # Shape

    @property
    def n_rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def n_words(self) -> int:
        return int(self.data.shape[1])

    @property
    def nbytes(self) -> int:
        """Packed storage footprint in bytes."""
        return int(self.data.nbytes)

    # ------------------------------------------------------------------ #
    # Row operations

    def row_popcounts(self) -> np.ndarray:
        """``(R,)`` int64 vector of set-bit counts per row (``POPC(A)``)."""
        return popcount_rows(self.data)

    def select_rows(self, start: int, stop: int) -> "BitMatrix":
        """A view-backed BitMatrix of rows ``[start, stop)``."""
        if not (0 <= start <= stop <= self.n_rows):
            raise IndexError(
                f"row range [{start}, {stop}) out of bounds for {self.n_rows} rows"
            )
        return BitMatrix(
            data=self.data[start:stop],
            n_bits=self.n_bits,
            planes=self.planes.rows(start, stop) if self.planes else None,
        )

    def bitwise_and(self, other: "BitMatrix") -> "BitMatrix":
        """Element-wise AND of two matrices with identical shape."""
        self._check_compatible(other)
        return BitMatrix(data=self.data & other.data, n_bits=self.n_bits)

    def bitwise_xor(self, other: "BitMatrix") -> "BitMatrix":
        """Element-wise XOR of two matrices with identical shape."""
        self._check_compatible(other)
        return BitMatrix(data=self.data ^ other.data, n_bits=self.n_bits)

    def _check_compatible(self, other: "BitMatrix") -> None:
        if self.data.shape != other.data.shape or self.n_bits != other.n_bits:
            raise ValueError(
                f"incompatible BitMatrix shapes: {self.data.shape}/{self.n_bits} "
                f"vs {other.data.shape}/{other.n_bits}"
            )

    def __repr__(self) -> str:
        return f"BitMatrix(rows={self.n_rows}, bits={self.n_bits})"
