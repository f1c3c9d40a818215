"""The paper's ``combine`` routine: pairwise AND of two SNP blocks.

Given the encoded class matrix (``2*M`` genotype bit-plane rows, see §3.1)
and two block offsets, :func:`combine_blocks` ANDs every bit-plane row of the
first block with every bit-plane row of the second, producing the
``4*B^2``-row operand matrices that feed the binary tensor GEMMs
(``wx``, ``yz``, ``wy``, ``xy``, ... in Algorithm 1).

On the real system this runs on the GPU's general-purpose cores (the paper
measures it at ~8.4% of GPU time); here it is a broadcast AND over packed
words.

Row layout of the output: row ``((2*i + gi) * 2*B + (2*j + gj))`` holds the
AND of bit-plane ``gi`` of the ``i``-th SNP of the first block with bit-plane
``gj`` of the ``j``-th SNP of the second block.  Equivalently, reshaping the
output row axis to ``(B, 2, B, 2)`` gives indices ``(i, gi, j, gj)``.

When both blocks are the same block, only the rows with ``i < j`` can feed a
valid quad (SNPs within a combination are distinct and ordered);
:func:`diagonal_compact` keeps exactly those ``2*B*(B-1)`` rows.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.bitops.bitmatrix import BitMatrix, words_for_bits


def combined_nbytes(block_size: int, n_bits: int) -> int:
    """Bytes of one combined operand: ``4*B^2`` packed-u64 rows of ``n_bits``.

    This is the device-resident size of a single :func:`combine_blocks`
    output for one class; the round-operand cache and the §3.3 memory model
    both size combined entries with it, so cache accounting cannot drift
    from the actual payload format.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be > 0, got {block_size}")
    if n_bits <= 0:
        raise ValueError(f"n_bits must be > 0, got {n_bits}")
    return 8 * (4 * block_size * block_size) * words_for_bits(n_bits)


def combine_blocks(
    encoded: BitMatrix, first_offset: int, second_offset: int, block_size: int
) -> BitMatrix:
    """AND-combine two blocks of ``block_size`` SNPs.

    Args:
        encoded: the per-class encoded matrix with ``2*M`` rows (two genotype
            bit-planes per SNP, row ``2*m + g``).
        first_offset: index (in SNPs) of the first block's first SNP.
        second_offset: index (in SNPs) of the second block's first SNP.
        block_size: ``B``, the number of SNPs per block.

    Returns:
        A :class:`BitMatrix` with ``4 * B**2`` rows in the layout documented
        above (``4 * B^2 * N`` bits, matching §3.2).  When ``encoded``
        carries float32 planes, so does the result: its dense form is the
        broadcast product of the two blocks' planes.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be > 0, got {block_size}")
    rows = encoded.n_rows
    for name, off in (("first_offset", first_offset), ("second_offset", second_offset)):
        if off < 0 or 2 * (off + block_size) > rows:
            raise IndexError(
                f"{name}={off} with block_size={block_size} exceeds "
                f"{rows // 2} encoded SNPs"
            )
    first = encoded.data[2 * first_offset : 2 * (first_offset + block_size)]
    second = encoded.data[2 * second_offset : 2 * (second_offset + block_size)]
    # (2B, 1, W) & (1, 2B, W) -> (2B, 2B, W); flatten row axes.
    combined = first[:, None, :] & second[None, :, :]
    out = combined.reshape(4 * block_size * block_size, encoded.data.shape[1])
    planes = None
    if encoded.planes is not None:
        planes = encoded.planes.product(
            2 * first_offset,
            2 * (first_offset + block_size),
            2 * second_offset,
            2 * (second_offset + block_size),
        )
    return BitMatrix(data=out, n_bits=encoded.n_bits, planes=planes)


@functools.lru_cache(maxsize=None)
def diagonal_rows(block_size: int) -> np.ndarray:
    """Indices of the ``2*B*(B-1)`` rows ``(i, gi, j, gj)`` with ``i < j``
    of a ``4*B^2``-row combined operand, in row order (read-only)."""
    b = block_size
    i, _, j, _ = np.unravel_index(np.arange(4 * b * b), (b, 2, b, 2))
    rows = np.flatnonzero(i < j)
    rows.setflags(write=False)
    return rows


def diagonal_compact(combined: BitMatrix, block_size: int) -> BitMatrix:
    """The ``i < j`` rows of a same-block combined operand (see
    :func:`diagonal_rows`): the only rows a valid quad can read when both
    of the operand's blocks are one block."""
    b = block_size
    if combined.n_rows != 4 * b * b:
        raise ValueError(
            f"combined operand has {combined.n_rows} rows, expected 4*B^2 = {4 * b * b}"
        )
    return BitMatrix(
        data=combined.data[diagonal_rows(b)],
        n_bits=combined.n_bits,
        planes=combined.planes.diagonal(b) if combined.planes else None,
    )
