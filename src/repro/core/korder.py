"""Generalized interaction orders: second- and third-order tensor searches.

The paper's related art applies binary tensor cores to second- and
third-order searches [14, 16]; Epi4Tensor extends the scheme to fourth
order, and §6 lists "extending the work to higher-order SNP interactions"
as ongoing work.  This module rounds the system out downwards: exhaustive
second- and third-order searches over the *same* substrate — same encoded
bit-planes, same binary GEMM engines, same completion and scoring —
so the interaction order becomes a parameter of the library rather than a
fixed constant.

Scheme per order:

- **k = 2**: one GEMM of the class bit-planes against themselves per block
  row yields the ``{0,1}^2`` corners of all pairs at once; completion uses
  ``indivPop``.
- **k = 3**: per block pair ``(Wi <= Xi)``, ``combine(W, X)`` then a GEMM
  against the tail planes ``[Xi, M)`` yields the ``{0,1}^3`` corners of all
  ``B^2 x T`` triplets (exactly the paper's ``tensorOp_3way``); completion
  uses ``pairwPop``.

Both searches accept the same device models and reduce with the same
packed-index rule as the fourth-order driver (unused index fields carry a
sentinel so packing stays lexicographic per order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import num_blocks
from repro.core.pairwise import indiv_pop, pairw_pop
from repro.core.solution import MAX_SNP_INDEX
from repro.core.threeway import complete_threeway
from repro.contingency.complete import complete_pair
from repro.datasets.dataset import Dataset
from repro.datasets.encoding import EncodedDataset, encode_dataset
from repro.device.specs import A100_PCIE, GPUSpec
from repro.scoring import make_score
from repro.scoring.base import ScoreFunction, normalized_for_minimization
from repro.scoring.k2 import K2Score
from repro.scoring.lgamma_table import LgammaTable
from repro.utils.timing import Timer


@dataclass(frozen=True)
class KOrderResult:
    """Outcome of a second- or third-order search.

    Attributes:
        order: interaction order (2 or 3).
        best_tuple: the winning SNP indices, strictly increasing.
        best_score: its (minimization-normalized) score.
        n_sets_evaluated: unique combinations scored.
        wall_seconds: simulator wall time.
        tensor_ops: fused binary-tensor op volume executed.
    """

    order: int
    best_tuple: tuple[int, ...]
    best_score: float
    n_sets_evaluated: int
    wall_seconds: float
    tensor_ops: int


def _prepare(
    dataset: Dataset | EncodedDataset, block_size: int, order: int
) -> EncodedDataset:
    if isinstance(dataset, Dataset):
        if dataset.n_snps < order:
            raise ValueError(f"need at least {order} SNPs, got {dataset.n_snps}")
        return encode_dataset(dataset, block_size=block_size)
    if dataset.n_snps % block_size:
        raise ValueError(
            f"encoded dataset has {dataset.n_snps} SNPs, not a multiple of "
            f"block_size={block_size}"
        )
    return dataset


def _score_fn(score: str | ScoreFunction, n_samples: int):
    if isinstance(score, str):
        if score == "k2":
            score = K2Score(LgammaTable.for_samples(n_samples))
        else:
            score = make_score(score)
    return normalized_for_minimization(score)


def search_second_order(
    dataset: Dataset | EncodedDataset,
    *,
    block_size: int = 32,
    score: str | ScoreFunction = "k2",
    spec: GPUSpec = A100_PCIE,
    engine_mode: str = "dense",
    n_gpus: int = 1,
) -> KOrderResult:
    """Exhaustive pairwise (BOOST-class) search on the tensor substrate.

    One plane-by-plane GEMM block-row at a time: corners for ``B x M`` pairs
    per launch, completed with ``indivPop`` and scored in bulk.  Multi-GPU
    splits block rows over the devices with the same dynamic rule as the
    higher orders (block-row cost shrinks with the row index).
    """
    from repro.device.cluster import VirtualCluster

    enc = _prepare(dataset, block_size, order=2)
    if enc.n_real_snps < 2:
        raise ValueError(f"need at least 2 SNPs, got {enc.n_real_snps}")
    cluster = VirtualCluster(spec, n_gpus, mode=engine_mode)
    score_min = _score_fn(score, enc.n_samples)
    singles = indiv_pop(enc)
    m, b = enc.n_snps, block_size
    nb = num_blocks(m, b)
    schedule = cluster.schedule(
        [float(2 * (2 * b) * (2 * (m - bi * b)) * enc.n_samples) for bi in range(nb)]
    )
    row_owner = {
        bi: gpu
        for gpu, rows in zip(cluster.gpus, schedule.assignment)
        for bi in rows
    }
    timer = Timer()
    best_score = np.inf
    best_pair = (0, 1)
    with timer:
        for bi in range(nb):
            gpu = row_owner[bi]
            a0 = bi * b
            tables = []
            for cls in (0, 1):
                planes = enc.class_matrix(cls)
                block = planes.select_rows(2 * a0, 2 * (a0 + b))
                tail = planes.select_rows(2 * a0, 2 * m)
                raw = gpu.launch_plane_gemm("tensor2", block, tail)
                t = m - a0
                corner = raw.reshape(b, 2, t, 2).transpose(0, 2, 1, 3)
                full = complete_pair(
                    corner,
                    singles[cls][a0 : a0 + b, None],
                    singles[cls][None, a0:m],
                )
                tables.append(full)
            scores = score_min(tables[0], tables[1], order=2)
            a_idx = np.arange(a0, a0 + b)[:, None]
            t_idx = np.arange(a0, m)[None, :]
            valid = (a_idx < t_idx) & (t_idx < enc.n_real_snps) & (
                a_idx < enc.n_real_snps
            )
            scores = np.where(valid, scores, np.inf)
            pos = int(np.argmin(scores))
            sc = float(scores.flat[pos])
            if sc < best_score:
                i, j = np.unravel_index(pos, scores.shape)
                best_score = sc
                best_pair = (a0 + int(i), a0 + int(j))
    n_sets = enc.n_real_snps * (enc.n_real_snps - 1) // 2
    return KOrderResult(
        order=2,
        best_tuple=best_pair,
        best_score=best_score,
        n_sets_evaluated=n_sets,
        wall_seconds=timer.elapsed,
        tensor_ops=sum(
            int(g.metrics.total("epi4_tensor_ops_total", form="raw")) for g in cluster.gpus
        ),
    )


def third_order_outer_tensor_ops(
    wi: int, nb: int, block_size: int, n_samples: int
) -> int:
    """Tensor-op volume of third-order outer iteration ``Wi = wi``
    (multi-GPU scheduling weight, analogous to the fourth-order one)."""
    if not 0 <= wi < nb:
        raise ValueError(f"wi must be in [0, {nb}), got {wi}")
    b = block_size
    m = nb * b
    return sum(
        2 * (4 * b * b) * (2 * (m - xi * b)) * n_samples
        for xi in range(wi, nb)
    )


def search_third_order(
    dataset: Dataset | EncodedDataset,
    *,
    block_size: int = 16,
    score: str | ScoreFunction = "k2",
    spec: GPUSpec = A100_PCIE,
    engine_mode: str = "dense",
    n_gpus: int = 1,
) -> KOrderResult:
    """Exhaustive third-order search (the [16] scheme on our substrate).

    Per block pair ``(Wi <= Xi)``: ``combine(W, X)`` then one GEMM against
    the tail planes ``[Xi, M)`` — precisely the paper's ``tensorOp_3way``
    primitive — followed by pairwise completion, scoring and reduction.
    Multi-GPU follows §3.6: outer (``Wi``) iterations are dynamically
    scheduled over the devices and local bests reduce at the host.
    """
    from repro.device.cluster import VirtualCluster

    enc = _prepare(dataset, block_size, order=3)
    if enc.n_real_snps < 3:
        raise ValueError(f"need at least 3 SNPs, got {enc.n_real_snps}")
    if enc.n_snps - 1 > MAX_SNP_INDEX:
        raise ValueError("SNP count exceeds the 16-bit index limit")
    cluster = VirtualCluster(spec, n_gpus, mode=engine_mode)
    score_min = _score_fn(score, enc.n_samples)
    low = pairw_pop(enc)
    m, b = enc.n_snps, block_size
    nb = num_blocks(m, b)
    schedule = cluster.schedule(
        [
            float(third_order_outer_tensor_ops(wi, nb, b, enc.n_samples))
            for wi in range(nb)
        ]
    )
    timer = Timer()
    best_score = np.inf
    best_triple = (0, 1, 2)
    with timer:
        for gpu, outer_iters in zip(cluster.gpus, schedule.assignment):
            gpu.transfer_to_device(enc.nbytes)
            for wi in outer_iters:
                wo = wi * b
                for xi in range(wi, nb):
                        xo = xi * b
                        tables = []
                        for cls in (0, 1):
                            planes = enc.class_matrix(cls)
                            wx = gpu.launch_combine(planes, wo, xo, b)
                            corner = gpu.launch_tensor3(wx, planes, xo, m, b)
                            full = complete_threeway(
                                corner,
                                low.pairs[cls],
                                np.arange(wo, wo + b),
                                np.arange(xo, xo + b),
                                np.arange(xo, m),
                            )
                            tables.append(full)
                        scores = score_min(tables[0], tables[1], order=3)
                        w_idx = np.arange(wo, wo + b)[:, None, None]
                        x_idx = np.arange(xo, xo + b)[None, :, None]
                        t_idx = np.arange(xo, m)[None, None, :]
                        valid = (
                            (w_idx < x_idx)
                            & (x_idx < t_idx)
                            & (t_idx < enc.n_real_snps)
                        )
                        scores = np.where(valid, scores, np.inf)
                        pos = int(np.argmin(scores))
                        sc = float(scores.flat[pos])
                        if sc < best_score:
                            i, j, k = np.unravel_index(pos, scores.shape)
                            best_score = sc
                            best_triple = (wo + int(i), xo + int(j), xo + int(k))
    r = enc.n_real_snps
    n_sets = r * (r - 1) * (r - 2) // 6
    return KOrderResult(
        order=3,
        best_tuple=best_triple,
        best_score=best_score,
        n_sets_evaluated=n_sets,
        wall_seconds=timer.elapsed,
        tensor_ops=sum(
            int(g.metrics.total("epi4_tensor_ops_total", form="raw")) for g in cluster.gpus
        ),
    )
