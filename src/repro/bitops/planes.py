"""Float32 genotype planes: the dense form every BLAS GEMM operand is read
from.

The dense tensor path multiplies 0/1 float32 rows on BLAS.  Rather than
unpacking each packed operand again for every GEMM, a search unpacks each
class's ``(2*M, N_class)`` bit-planes to float32 **once** and forms every
dense operand from those planes:

- a combined operand (``wx``, ``yz``, ...) is the elementwise product of
  two row sets, ``P[rows_a] * P[rows_b]`` — the float image of the packed
  AND that :func:`~repro.bitops.combine.combine_blocks` computes;
- a third-order tail is a plain row slice of the planes (a view, no copy).

:class:`PlaneRows` describes such an operand as a list of *segments*, each
either a plain slice ``P[a0:a1]`` or a broadcast product
``P[a0:a1, None] * P[None, b0:b1]`` flattened row-major.  Segments
concatenate, so stacking operands for a fused launch
(:meth:`~repro.bitops.BitMatrix.vstack`) writes every part straight into
one buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: One segment: ``(a0, a1, (b0, b1))``, or ``(a0, a1, None)`` for a plain
#: slice.
Segment = tuple[int, int, tuple[int, int] | None]


@dataclass(frozen=True, eq=False)
class PlaneRows:
    """Rows of a dense operand, formed from float32 ``planes``.

    Attributes:
        planes: the class's ``(2*M, N_class)`` float32 planes (read-only,
            shared by every operand formed from them).
        segments: the operand's rows, in order (see the module docstring).
    """

    planes: np.ndarray
    segments: tuple[Segment, ...]

    @classmethod
    def whole(cls, planes: np.ndarray) -> "PlaneRows":
        """Every row of ``planes``, as a plain slice."""
        return cls(planes, ((0, planes.shape[0], None),))

    @property
    def n_rows(self) -> int:
        return sum(
            (a1 - a0) * (1 if b is None else b[1] - b[0])
            for a0, a1, b in self.segments
        )

    def rows(self, start: int, stop: int) -> "PlaneRows | None":
        """Rows ``[start, stop)`` of a plain-slice operand (``None`` for a
        product operand, which no caller slices)."""
        if len(self.segments) != 1 or self.segments[0][2] is not None:
            return None
        a0 = self.segments[0][0]
        return PlaneRows(self.planes, ((a0 + start, a0 + stop, None),))

    def product(self, a0: int, a1: int, b0: int, b1: int) -> "PlaneRows":
        """``P[a0:a1] x P[b0:b1]`` broadcast products, row-major — the
        float image of ANDing every plane row of one range with every plane
        row of the other (row indices into the underlying planes)."""
        return PlaneRows(self.planes, ((a0, a1, (b0, b1)),))

    def diagonal(self, block_size: int) -> "PlaneRows":
        """The ``w < x`` rows of a same-block product (see
        :func:`~repro.bitops.combine.diagonal_rows`): for each ``w``, the
        products of SNP ``w``'s two planes with the planes of SNPs
        ``w+1 .. B-1``."""
        b = block_size
        a0, a1, rows_b = self.segments[0]
        if len(self.segments) != 1 or rows_b != (a0, a1) or a1 - a0 != 2 * b:
            raise ValueError("diagonal() needs one same-block 2B x 2B product")
        return PlaneRows(
            self.planes,
            tuple(
                (a0 + 2 * w, a0 + 2 * w + 2, (a0 + 2 * w + 2, a0 + 2 * b))
                for w in range(b - 1)
            ),
        )

    def stacked(self, others: list["PlaneRows"]) -> "PlaneRows | None":
        """This operand's rows followed by each of ``others``' rows, or
        ``None`` when they are formed from different planes."""
        if any(o.planes is not self.planes for o in others):
            return None
        segments = self.segments + tuple(s for o in others for s in o.segments)
        return PlaneRows(self.planes, segments)

    def dense(self) -> np.ndarray:
        """The ``(n_rows, N_class)`` float32 operand.  A single plain slice
        is returned as a read-only view of the planes."""
        p = self.planes
        if len(self.segments) == 1 and self.segments[0][2] is None:
            a0, a1, _ = self.segments[0]
            return p[a0:a1]
        out = np.empty((self.n_rows, p.shape[1]), dtype=p.dtype)
        row = 0
        for a0, a1, b in self.segments:
            if b is None:
                out[row : row + a1 - a0] = p[a0:a1]
                row += a1 - a0
                continue
            b0, b1 = b
            n = (a1 - a0) * (b1 - b0)
            np.multiply(
                p[a0:a1, None, :],
                p[None, b0:b1, :],
                out=out[row : row + n].reshape(a1 - a0, b1 - b0, p.shape[1]),
            )
            row += n
        return out
