"""Exact work accounting for a fourth-order search (no execution needed).

All counts follow the paper's conventions:

- one fused 1-bit op (AND+POPC or XOR+POPC over one bit) counts as **two**
  operations;
- a ``tensorOp_4way`` GEMM for a round is ``(4B^2) x (4B^2) x N_c`` bits per
  class;
- a ``tensorOp_3way`` sweep launched at loop level with iterator value
  ``t0`` is ``(4B^2) x 2(M - t0) x N_c`` bits per class (one sweep per
  ``Xi`` iteration for ``wx``, two per ``Yi`` iteration for ``wy``/``xy``).

Those are the paper's scheme, which the performance model and Figs. 2-3
charge.  The search executes less:

- the 4-way GEMM is smaller: a same-block ``wx`` (``Wi == Xi``) or ``yz``
  (``Yi == Zi``) operand carries only the ``2B(B-1)`` rows with ``w < x``
  (see :func:`combined_rows`), so a round executes
  ``r(Wi, Xi) x r(Yi, Zi) x N_c`` bits per class;
- each outer iteration ``Wi`` holds its sweeps ``(Wi, b)`` for the whole
  iteration, so sweep ``(Wi, b)`` runs once per ``Wi`` — not once as the
  ``wx`` sweep of pair ``(Wi, b)`` and again as the ``wy`` sweep of every
  ``Xi <= b`` — and only the ``xy`` sweeps with ``Xi > Wi`` stay one per
  ``(Wi, Xi, Yi)``: ``2*C(nb+2, 3)`` tensor3 launches in all.

The ``executed_*`` forms count that work.

These formulas are asserted against the work the
:class:`~repro.device.VirtualGPU` launches count in the test suite, so the
analytic model and the executed pipeline cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from repro.core.blocks import count_rounds, num_blocks, unique_combinations


@dataclass(frozen=True)
class SearchWorkload:
    """Total work of one search.

    Attributes:
        n_snps: padded SNP count ``M``.
        n_real_snps: unpadded SNP count.
        block_size: ``B``.
        n_samples: ``N = N0 + N1``.
        tensor4_ops: fused-op volume of all ``tensorOp_4way`` GEMMs (x2 per
            fused op) in the paper's scheme, ``(4B^2)^2`` per round.
        executed_tensor4_ops: the 4-way volume the search executes, with
            same-block operands diagonal-compact (see
            :func:`combined_rows`).
        tensor3_ops: fused-op volume of all ``tensorOp_3way`` GEMMs.
        executed_tensor3_ops: the 3-way volume the search executes, with
            each ``Wi``'s sweeps held for the iteration (see
            :func:`outer_iteration_executed_tensor3_ops`).
        combine_bit_ops: bitwise AND volume of all ``combine`` launches.
        executed_combine_bit_ops: the ``combine`` volume the search
            executes under the per-``Wi`` hold.
        pairwise_ops: plane-dot volume of ``pairwPop``.
        score_cells: 81-cell-table cells completed and scored by the
            mask-first compacted ``applyScore`` (the default path): every
            *unique* combination is valid in exactly one round, so the
            total is ``81 * 2 * C(M_real, 4)``.  The legacy dense path
            materializes the full grid — see :attr:`score_cells_dense`.
        transfer_bytes: dataset bytes shipped to one device.
        n_rounds: evaluation rounds.
        quads_processed: positional quads (incl. repeats).
        unique_quads: ``C(M_real, 4)``.
        survivor_fraction: fraction of mask-valid quads the admissible
            branch-and-bound gate (see :mod:`repro.scoring.bounds`) lets
            through to completion+scoring.  ``1.0`` (the default) models
            the exhaustive / prune-off run; measured values come from
            ``epi4_applyscore_valid_total / (valid + pruned)``.  Pruning
            never changes results, so only :attr:`score_cells_pruned`
            and the bound-evaluation overhead depend on it.
    """

    n_snps: int
    n_real_snps: int
    block_size: int
    n_samples: int
    tensor4_ops: int
    executed_tensor4_ops: int
    tensor3_ops: int
    executed_tensor3_ops: int
    combine_bit_ops: int
    executed_combine_bit_ops: int
    pairwise_ops: int
    score_cells: int
    transfer_bytes: int
    n_rounds: int
    quads_processed: int
    unique_quads: int
    survivor_fraction: float = 1.0

    @property
    def tensor_ops(self) -> int:
        """All tensor-core fused-op volume (paper scheme)."""
        return self.tensor4_ops + self.tensor3_ops

    @property
    def executed_tensor_ops(self) -> int:
        """All tensor-core fused-op volume the search executes."""
        return self.executed_tensor4_ops + self.executed_tensor3_ops

    @property
    def score_cells_dense(self) -> int:
        """Cells materialized by the legacy dense ``applyScore`` path, which
        completes the full ``B^4`` grid of every round before masking."""
        return self.n_rounds * self.block_size**4 * 81 * 2

    @property
    def compaction_ratio(self) -> float:
        """Fraction of dense score cells the mask-first path actually
        completes and scores.  Equals :attr:`useful_fraction` because each
        unique combination is valid in exactly one round."""
        return self.score_cells / self.score_cells_dense

    @property
    def useful_fraction(self) -> float:
        return self.unique_quads / self.quads_processed

    @property
    def bound_cells(self) -> int:
        """Cells gathered and evaluated by the branch-and-bound gate:
        every mask-valid (= unique) quad is bounded once from its 48
        known cells per class (16 fourth-order corners + four
        one-index-is-2 fibers derived by marginal subtraction) before
        the gate decides.  The two per-class remainder terms reuse the
        same table views and are O(1) per quad — negligible next to the
        gather, so they are not counted separately.  The gate is a pure
        win whenever ``(1 - survivor_fraction) * 81 * 2`` exceeds this
        ``96`` cells/quad overhead, i.e. whenever more than ~59% of
        quads prune."""
        return self.unique_quads * 48 * 2

    @property
    def score_cells_pruned(self) -> int:
        """Cells completed and scored when the branch-and-bound gate
        passes only :attr:`survivor_fraction` of mask-valid quads
        (equals :attr:`score_cells` at the default 1.0)."""
        return int(round(self.score_cells * self.survivor_fraction))

    @property
    def scaled_quads(self) -> int:
        """Unique quads x samples — the numerator of the paper's headline
        metric ("quads of SNPs per second, scaled to sample size")."""
        return self.unique_quads * self.n_samples

    def tensor_ops_per_scaled_quad(self) -> float:
        """Tensor ops spent per useful quad-sample (inverse efficiency of
        the combination scheme; ~``32 / useful_fraction`` plus 3-way terms).
        """
        return self.tensor_ops / self.scaled_quads


def unique_block_triples(nb: int) -> int:
    """Number of unordered block triples ``(ai <= bi <= ci)``.

    With the cross-round triplet cache on (and an unbounded budget), each
    completed third-order table is computed once per class per unique block
    triple, so ``complete_threeway`` executions collapse from
    ``2 * round_triplet_requests(nb)`` to ``2 * unique_block_triples(nb)``
    (for padding-free configurations with ``B >= 4``, where no round is
    empty of valid quads).
    """
    return comb(nb + 2, 3)


def round_triplet_requests(nb: int) -> int:
    """Completed-triplet requests of a whole search, per class.

    A round ``(Wi, Xi, Yi, Zi)`` requests the triplets its derived cells
    read, ``(Xi, Yi, Zi)``, ``(Wi, Yi, Zi)`` and ``(Wi, Xi, Zi)``, once per
    distinct block triple: the first two coincide when ``Wi == Xi``, the
    last two when ``Xi == Yi``.  Over all rounds that is ``3 *
    count_rounds(nb) - 2 * unique_block_triples(nb)`` (65 at ``nb = 4``,
    750 at ``nb = 8``): the ``complete_threeway`` executions of a search
    without the cache and without pruning (padding-free, ``B >= 4``).
    """
    return 3 * count_rounds(nb) - 2 * unique_block_triples(nb)


def combined_rows(ai: int, bi: int, block_size: int) -> int:
    """Rows of the ``(ai, bi)`` block pair's operand in the executed 4-way
    GEMM: ``4B^2``, or ``2B(B-1)`` for a same-block pair, whose ``w >= x``
    rows can feed no valid quad."""
    b = block_size
    return 2 * b * (b - 1) if ai == bi else 4 * b * b


def _executed_yz_rows(xi: int, nb: int, block_size: int) -> int:
    """``sum r(Yi, Zi)`` over the rounds ``xi <= Yi <= Zi < nb``."""
    return sum(
        combined_rows(yi, yi, block_size)
        + (nb - 1 - yi) * combined_rows(0, 1, block_size)
        for yi in range(xi, nb)
    )


def search_gemm_launches(
    nb: int,
    *,
    batch_rounds: int = 1,
    cache_operands: bool = False,
) -> dict[str, int]:
    """Executed tensor-GEMM *launches* of a full search, by kernel.

    Launches are what the batched round pipeline collapses — the fused-op
    volume (:func:`search_workload`) is invariant, but each fused launch
    of ``batch_rounds`` stacked ``yz`` operands retires up to that many
    logical GEMM problems at one launch overhead.  Per ``(Wi, Xi)`` pair
    the ``T = nb - Xi`` tail yields ``C(T + 1, 2)`` rounds, chunked into
    ``ceil(rounds / batch_rounds)`` fused 4-way launches per class.

    Args:
        nb: number of SNP blocks.
        batch_rounds: rounds fused per 4-way launch group (1 = one
            4-way launch per round and class).
        cache_operands: model an unbounded round-operand cache — every
            unique block-pair sweep executes exactly once per class.
            Without it, each ``Wi`` runs its held sweeps ``(Wi, b)`` once
            and the ``xy`` sweeps with ``Xi > Wi`` once per ``(Wi, Xi,
            Yi)``.  Either way the 3-way launch count is independent of
            batching.

    Returns:
        ``{"tensor3": launches, "tensor4": launches}``.  The matching
        per-problem totals (``epi4_gemm_problems_total``) always equal
        the ``batch_rounds=1`` launch counts.
    """
    if nb < 1:
        raise ValueError(f"nb must be >= 1, got {nb}")
    if batch_rounds < 1:
        raise ValueError(f"batch_rounds must be >= 1, got {batch_rounds}")
    tensor4 = 0
    for xi in range(nb):
        rounds = comb(nb - xi + 1, 2)
        tensor4 += (xi + 1) * 2 * -(-rounds // batch_rounds)
    if cache_operands:
        # wx sweeps: one per class per unique (ai <= bi) pair — every
        # sweep is pair-keyed.
        tensor3 = 2 * comb(nb + 1, 2)
    else:
        # Per Wi: the held sweeps (Wi, b), b >= Wi, plus one xy sweep per
        # (Wi < Xi <= Yi) — C(nb - Wi + 1, 2) per class, summed over Wi.
        tensor3 = 2 * comb(nb + 2, 3)
    return {"tensor3": tensor3, "tensor4": tensor4}


def outer_iteration_tensor_ops(
    wi: int, nb: int, block_size: int, n_samples: int
) -> int:
    """Tensor-op volume of outer iteration ``Wi = wi`` (scheduling weight).

    This is the §3.6 unit of multi-GPU work division; the volume decreases
    with ``wi``, which the dynamic schedule balances.
    """
    if not 0 <= wi < nb:
        raise ValueError(f"wi must be in [0, {nb}), got {wi}")
    b = block_size
    m = nb * b
    ops = 0
    for xi in range(wi, nb):
        # wx sweep: (4B^2) x 2(M - xi*B) x N bits.
        ops += 2 * (4 * b * b) * (2 * (m - xi * b)) * n_samples
        for yi in range(xi, nb):
            # wy + xy sweeps: each (4B^2) x 2(M - yi*B) x N bits.
            ops += 2 * (2 * (4 * b * b)) * (2 * (m - yi * b)) * n_samples
            # One 4-way GEMM per Zi iteration: (4B^2) x (4B^2) x N bits.
            ops += (nb - yi) * 2 * (4 * b * b) * (4 * b * b) * n_samples
    return ops


def outer_iteration_tensor4_ops(
    wi: int, nb: int, block_size: int, n_samples: int
) -> int:
    """4-way GEMM volume of outer iteration ``Wi = wi``.

    Unlike the full :func:`outer_iteration_tensor_ops` weight, this term
    is **cache-invariant**: round work is per-quad unique, so the operand
    cache cannot elide any of it.  The distributed layer uses it to
    assert measured-vs-modelled shard volumes even for cache-enabled
    configurations, where 3-way sweep volume depends on cross-iteration
    hit patterns.
    """
    if not 0 <= wi < nb:
        raise ValueError(f"wi must be in [0, {nb}), got {wi}")
    b = block_size
    ops = 0
    for xi in range(wi, nb):
        for yi in range(xi, nb):
            ops += (nb - yi) * 2 * (4 * b * b) * (4 * b * b) * n_samples
    return ops


def outer_iteration_executed_tensor4_ops(
    wi: int, nb: int, block_size: int, n_samples: int
) -> int:
    """Executed 4-way GEMM volume of outer iteration ``Wi = wi``: per round
    and class, ``2 * r(Wi, Xi) * r(Yi, Zi) * N_c`` (see
    :func:`combined_rows`).  Cache-invariant, like
    :func:`outer_iteration_tensor4_ops`."""
    if not 0 <= wi < nb:
        raise ValueError(f"wi must be in [0, {nb}), got {wi}")
    return sum(
        2
        * combined_rows(wi, xi, block_size)
        * _executed_yz_rows(xi, nb, block_size)
        * n_samples
        for xi in range(wi, nb)
    )


def _sweep_ops(bi: int, nb: int, block_size: int, n_samples: int) -> int:
    """Volume of one 3-way sweep over the tail ``[bi*B, M)``, both
    classes: ``(4B^2) x 2(M - bi*B) x N`` bits."""
    b = block_size
    return 2 * (4 * b * b) * (2 * (nb - bi) * b) * n_samples


def outer_iteration_executed_tensor3_ops(
    wi: int, nb: int, block_size: int, n_samples: int
) -> int:
    """Executed 3-way volume of outer iteration ``Wi = wi`` with the
    operand cache off: the held sweeps ``(wi, b)`` for every ``b >= wi``,
    each once, plus the ``xy`` sweep ``(Xi, Yi)`` of every
    ``wi < Xi <= Yi``."""
    if not 0 <= wi < nb:
        raise ValueError(f"wi must be in [0, {nb}), got {wi}")
    held = sum(
        _sweep_ops(bi, nb, block_size, n_samples) for bi in range(wi, nb)
    )
    xy = sum(
        (yi - wi) * _sweep_ops(yi, nb, block_size, n_samples)
        for yi in range(wi + 1, nb)
    )
    return held + xy


def outer_iteration_executed_tensor_ops(
    wi: int, nb: int, block_size: int, n_samples: int
) -> int:
    """Executed tensor-op volume of outer iteration ``Wi = wi`` with the
    operand cache off: the executed 4-way and 3-way terms."""
    return outer_iteration_executed_tensor4_ops(
        wi, nb, block_size, n_samples
    ) + outer_iteration_executed_tensor3_ops(wi, nb, block_size, n_samples)


def shard_tensor_ops(
    iterations: "list[int] | tuple[int, ...]",
    nb: int,
    block_size: int,
    n_samples: int,
) -> dict[str, int]:
    """Closed-form work volume of one shard (a set of outer iterations).

    Returns ``{"tensor_ops": ..., "tensor4_ops": ...}`` — the full
    paper-scheme scheduling weight and its cache-invariant 4-way component
    — plus the same two volumes as executed, ``"executed_tensor_ops"`` and
    ``"executed_tensor4_ops"``, summed over the shard's iterations.  With
    the operand cache off, a shard's raw tensor-op counters equal
    ``executed_tensor_ops`` exactly; with the cache on, only
    ``executed_tensor4_ops`` is guaranteed (sweep volume depends on hits).
    """
    forms = {
        "tensor_ops": outer_iteration_tensor_ops,
        "tensor4_ops": outer_iteration_tensor4_ops,
        "executed_tensor_ops": outer_iteration_executed_tensor_ops,
        "executed_tensor4_ops": outer_iteration_executed_tensor4_ops,
    }
    return {
        key: sum(form(wi, nb, block_size, n_samples) for wi in iterations)
        for key, form in forms.items()
    }


def search_workload(
    n_snps: int,
    n_samples: int,
    block_size: int,
    *,
    n_real_snps: int | None = None,
    cache_operands: bool = False,
    survivor_fraction: float = 1.0,
) -> SearchWorkload:
    """Exact totals for a search over ``M`` padded SNPs and ``N`` samples.

    Args:
        n_snps: padded SNP count (block multiple).
        n_samples: ``N0 + N1`` (class split does not change totals because
            every GEMM runs once per class over that class's bits).
        block_size: ``B``.
        n_real_snps: unpadded count (defaults to ``n_snps``).
        cache_operands: model an *unbounded* round-operand cache
            (:mod:`repro.core.operand_cache`).  Every combine and 3-way
            sweep is keyed by its unordered block pair, so with the cache
            on, each is **executed once**: ``combine`` volume collapses to
            ``C(nb+1, 2)`` unique pairs and ``tensorOp_3way`` volume to the
            ``wx``-shaped sum over unique ``(ai <= bi)`` pairs (the ``wy`` /
            ``xy`` re-sweeps and repeated ``yz`` combines become cache
            hits); the ``executed_*`` 3-way and combine volumes equal
            these.  Round work (``tensorOp_4way``, ``applyScore``) is
            per-quad unique and unaffected.  These reduced totals are
            asserted against executed :class:`~repro.device.VirtualGPU`
            work series in the equivalence suite.
        survivor_fraction: branch-and-bound gate pass rate in ``(0, 1]``
            (see :attr:`SearchWorkload.survivor_fraction`); ``1.0``
            models the exhaustive run.  ``score_cells`` itself stays the
            exhaustive total — the pruned projection is the
            :attr:`SearchWorkload.score_cells_pruned` property.
    """
    if not 0.0 < survivor_fraction <= 1.0:
        raise ValueError(
            f"survivor_fraction must be in (0, 1], got {survivor_fraction}"
        )
    nb = num_blocks(n_snps, block_size)
    b = block_size
    m = n_snps
    real = n_snps if n_real_snps is None else n_real_snps

    tensor3 = 0
    tensor4 = 0
    combine_ops = 0
    n_rounds = count_rounds(nb)
    # Pair (wi, xi) loop volume.  One sweep + combine per unique unordered
    # block pair — which is also the *total* cached-path volume, because
    # every sweep/combine at every loop level is keyed by such a pair.
    for xi in range(nb):
        n_wi = xi + 1  # number of wi <= xi
        tensor3 += n_wi * 2 * (4 * b * b) * (2 * (m - xi * b)) * n_samples
        combine_ops += n_wi * (4 * b * b) * n_samples  # wx combine
    if not cache_operands:
        # Triple (wi, xi, yi) loop volume:
        for yi in range(nb):
            n_pairs = comb(yi + 2, 2)  # (wi <= xi <= yi) count
            tensor3 += (
                n_pairs * 2 * (2 * (4 * b * b)) * (2 * (m - yi * b)) * n_samples
            )
            combine_ops += n_pairs * 2 * (4 * b * b) * n_samples  # wy + xy
    # Rounds:
    tensor4 = n_rounds * 2 * (4 * b * b) * (4 * b * b) * n_samples
    # Executed: per Xi, the wx rows of every wi <= xi (one same-block
    # pair) times the yz rows of every round of the (wi, xi) pair.
    executed_tensor4 = sum(
        2
        * (combined_rows(xi, xi, b) + xi * combined_rows(0, 1, b))
        * _executed_yz_rows(xi, nb, b)
        * n_samples
        for xi in range(nb)
    )
    if cache_operands:
        executed_tensor3 = tensor3
        executed_combine = combine_ops
    else:
        combine_ops += n_rounds * (4 * b * b) * n_samples  # yz combine
        executed_tensor3 = sum(
            outer_iteration_executed_tensor3_ops(wi, nb, b, n_samples)
            for wi in range(nb)
        )
        # Combines: wx per (wi <= xi) pair; each held sweep (wi, b > wi)
        # forms its own (the sweep at b == wi reuses the wx combine); one
        # per xy sweep (wi < xi <= yi); yz per round.
        executed_combine = (
            comb(nb + 1, 2) + comb(nb, 2) + comb(nb + 1, 3) + n_rounds
        ) * (4 * b * b) * n_samples

    pairwise = 2 * (2 * m) * (2 * m) * n_samples  # plane-dot volume, both classes
    # Mask-first compacted applyScore: only *valid* positions are completed
    # and scored, and every unique combination is valid in exactly one round.
    score_cells = unique_combinations(real) * 81 * 2
    transfer = (2 * m * n_samples) // 8  # dataset bits -> bytes (both classes)

    return SearchWorkload(
        n_snps=m,
        n_real_snps=real,
        block_size=b,
        n_samples=n_samples,
        tensor4_ops=tensor4,
        executed_tensor4_ops=executed_tensor4,
        tensor3_ops=tensor3,
        executed_tensor3_ops=executed_tensor3,
        combine_bit_ops=combine_ops,
        executed_combine_bit_ops=executed_combine,
        pairwise_ops=pairwise,
        score_cells=score_cells,
        transfer_bytes=transfer,
        n_rounds=n_rounds,
        quads_processed=n_rounds * b**4,
        unique_quads=unique_combinations(real),
        survivor_fraction=survivor_fraction,
    )
