"""Ablation: the fused ``applyScore`` hot path vs the dense legacy scorer.

Three cells on the same workload:

- ``dense``          — the legacy full-grid completion + scoring
  (:func:`~repro.core.apply_score.apply_score_dense`), the pre-fusion
  baseline.  It is timed round by round against the fused
  :func:`~repro.core.apply_score.score_round` (staged-lgamma scorer, no
  triplet cache) on the *same* :class:`RoundOperands`, rebuilt for every
  round of the workload by
  :func:`~repro.core.selfcheck.direct_round_operands`;
- ``fused``          — a full search: mask-first compaction +
  staged-lgamma scorer, no operand cache (every round completes its own
  third-order tables);
- ``fused+triplets`` — adds the cross-round completed-triplet cache
  (unbounded budget), so each block triple is completed once per sweep;
- ``terms``          — every round of the workload scored by
  :func:`~repro.core.apply_score.score_round` twice, with the per-run K2
  term table (:class:`~repro.scoring.workspace.K2CellTerms`) on and off
  (three lgamma gathers per cell), on the same operands.

Reported per search cell: total wall, the ``score``-phase wall, the
compaction ratio, the full3 cache hit rate and the executed score-cell
volume; the ``dense`` cell reports both scorers' summed seconds.  Hard
bars:

- the two search cells' ranked top-k digests (``top_k_sha256``) are
  identical, the dense and fused scorers return bit-identical score
  grids on every round, and so do the term table's two forms;
- the fused scorer is >=1.5x faster than the dense one on the same
  operands;
- the compaction ratio equals the block scheme's unique fraction;
- without the triplet cache, ``complete_threeway`` executions equal the
  closed form ``2 * round_triplet_requests(nb)`` (each round completes
  only the triplets its derived cells read); with the cache on they
  collapse to ``2 * unique_block_triples(nb)``.

Results append to ``BENCH_applyscore.json`` next to this file.
Set ``EPI4TENSOR_BENCH_SMALL=1`` for a CI-sized workload.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.apply_score import apply_score_dense, score_round
from repro.core.pairwise import pairw_pop
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.core.selfcheck import direct_round_operands
from repro.datasets import encode_dataset, generate_random_dataset
from repro.obs.manifest import solutions_digest
from repro.perfmodel.workload import (
    round_triplet_requests,
    search_workload,
    unique_block_triples,
)
from repro.scoring import workspace as workspace_module
from repro.scoring.bounds import K2BoundKernel
from repro.scoring.k2 import K2Score
from repro.scoring.lgamma_table import LgammaTable
from repro.scoring.workspace import CHUNK_POSITIONS, K2CellTerms, K2Workspace

from conftest import print_table

_SMALL = os.environ.get("EPI4TENSOR_BENCH_SMALL") == "1"
N_SNPS = 32 if _SMALL else 48
N_SAMPLES = 128 if _SMALL else 256
BLOCK = 8
RESULTS_PATH = Path(__file__).with_name("BENCH_applyscore.json")

SEARCH_CELLS = [
    ("fused", {}),
    ("fused+triplets", dict(cache_mb=float("inf"))),
]


def _run(ds, extra):
    # prune=False: this ablation's closed-form cell/compaction asserts
    # require the full compacted volume to execute (the bound gate has
    # its own ablation, bench_ablation_pruning.py).
    config = SearchConfig(block_size=BLOCK, top_k=5, prune=False, **extra)
    search = Epi4TensorSearch(ds, config)
    start = time.perf_counter()
    result = search.run()
    wall = time.perf_counter() - start
    return search, result, wall


def _round_operands(encoded):
    """``(offsets, operands)`` of every round of the workload, rebuilt by
    the independent bitwise path."""
    nb = encoded.n_snps // BLOCK
    for wi in range(nb):
        for xi in range(wi, nb):
            for yi in range(xi, nb):
                for zi in range(yi, nb):
                    offsets = (wi * BLOCK, xi * BLOCK, yi * BLOCK, zi * BLOCK)
                    yield offsets, direct_round_operands(encoded, offsets, BLOCK)


def _scorer_seconds(ds):
    """Summed seconds of the dense and the fused scorer over every round
    of the workload, on identical operands; asserts identical grids."""
    encoded = encode_dataset(ds, block_size=BLOCK)
    pairs = pairw_pop(encoded).pairs
    k2 = K2Score(LgammaTable.for_samples(encoded.n_samples))
    staged = k2.staged_kernel(encoded.n_samples)
    dense_s = fused_s = 0.0
    for offsets, operands in _round_operands(encoded):
        t0 = time.perf_counter()
        dense = apply_score_dense(operands, pairs, k2, encoded.n_real_snps)
        t1 = time.perf_counter()
        fused, _ = score_round(operands, pairs, staged, encoded.n_real_snps)
        t2 = time.perf_counter()
        assert np.array_equal(dense, fused), offsets
        dense_s += t1 - t0
        fused_s += t2 - t1
    return dense_s, fused_s


def _term_table_seconds(ds, monkeypatch):
    """Summed seconds of :func:`score_round` over every round with the
    per-run term table and with three lgamma gathers per cell (the form
    above its size gate); asserts identical grids."""
    encoded = encode_dataset(ds, block_size=BLOCK)
    pairs = pairw_pop(encoded).pairs
    staged = K2Score(LgammaTable.for_samples(encoded.n_samples)).staged_kernel()
    classes = (encoded.n_controls, encoded.n_cases)
    kernel = K2BoundKernel(staged.table, *classes)
    table = K2CellTerms(staged.table, *classes)
    with monkeypatch.context() as patch:
        patch.setattr(workspace_module, "TERM_TABLE_MAX_BYTES", 0)
        three_gather = K2CellTerms(staged.table, *classes)
    assert table.table is not None and three_gather.table is None
    workspaces = [K2Workspace(t, CHUNK_POSITIONS) for t in (table, three_gather)]
    seconds = [0.0, 0.0]
    for offsets, operands in _round_operands(encoded):
        grids = []
        for i, workspace in enumerate(workspaces):
            t0 = time.perf_counter()
            grid, _ = score_round(
                operands, pairs, staged, encoded.n_real_snps,
                bound_kernel=kernel, workspace=workspace,
            )
            seconds[i] += time.perf_counter() - t0
            grids.append(grid)
        assert np.array_equal(grids[0], grids[1]), offsets
    return tuple(seconds)


def test_applyscore_ablation(benchmark, monkeypatch):
    ds = generate_random_dataset(N_SNPS, N_SAMPLES, seed=42)

    def sweep():
        scorers = _scorer_seconds(ds)
        terms = _term_table_seconds(ds, monkeypatch)
        return scorers, terms, [
            (label, *_run(ds, extra)) for label, extra in SEARCH_CELLS
        ]

    (dense_s, fused_s), (table_s, gather_s), runs = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    scorer_speedup = dense_s / fused_s if fused_s else 0.0

    digests = {label: solutions_digest(r.top_solutions) for label, _, r, _ in runs}
    rows = [["dense", "-", f"{dense_s:7.2f}", "-", "-", "-"]]
    records = [
        {
            "config": "dense",
            "dense_scorer_seconds": dense_s,
            "fused_scorer_seconds": fused_s,
            "scorer_speedup_vs_dense": scorer_speedup,
        },
        {
            "config": "terms",
            "term_table_seconds": table_s,
            "three_gather_seconds": gather_s,
        },
    ]
    for label, search, result, wall in runs:
        m = search.metrics
        score_wall = result.phase_seconds["score"]
        positions = m.total("epi4_applyscore_positions_total")
        valid = m.total("epi4_applyscore_valid_total")
        compaction = valid / positions if positions else None
        full3_exec = m.total("epi4_operand_executed_total", kind="full3")
        full3_srv = m.total("epi4_operand_cache_served_total", kind="full3")
        full3_req = full3_exec + full3_srv
        hit_rate = full3_srv / full3_req if full3_req else 0.0
        score_cells = int(m.total("epi4_score_cells_total"))
        rows.append(
            [
                label,
                f"{wall:7.2f}",
                f"{score_wall:7.2f}",
                "-" if compaction is None else f"{100 * compaction:5.1f}%",
                f"{100 * hit_rate:5.1f}%",
                f"{score_cells:.2e}",
            ]
        )
        records.append(
            {
                "config": label,
                "wall_seconds": wall,
                "score_phase_seconds": score_wall,
                "compaction_ratio": compaction,
                "full3_executed": full3_exec,
                "full3_cache_served": full3_srv,
                "full3_hit_rate": hit_rate,
                "score_cells_executed": score_cells,
                "top_k_sha256": digests[label],
            }
        )

    print_table(
        f"applyScore path ablation (M={N_SNPS}, N={N_SAMPLES}, B={BLOCK})",
        ["config", "wall s", "score s", "compact", "full3 hits", "cells"],
        rows,
    )
    print(
        f"dense scorer {dense_s:.2f} s vs fused scorer {fused_s:.2f} s on "
        f"identical operands: {scorer_speedup:.2f}x"
    )
    print(
        f"term table {table_s:.2f} s vs three lgamma gathers {gather_s:.2f} s "
        "per cell, identical grids on every round"
    )

    # --- assertions ------------------------------------------------------ #
    # Bit-identity: the optimization may not move a single ranked result
    # (the dense-vs-fused grids were compared round by round above).
    assert len(set(digests.values())) == 1, digests

    scheme = runs[0][2].block_scheme
    wl = search_workload(N_SNPS, N_SAMPLES, BLOCK)

    _, _, fused_rec, triplets_rec = records
    # The fused paths execute exactly the compacted (= unique) cell volume.
    for rec in (fused_rec, triplets_rec):
        assert rec["score_cells_executed"] == wl.score_cells
        assert rec["compaction_ratio"] == scheme.useful_fraction

    # The headline bar: >=1.5x applyScore reduction on identical operands.
    assert scorer_speedup >= 1.5, records[0]

    # Cross-round reuse: completions collapse to unique block triples.
    nb = scheme.n_snps // BLOCK
    assert fused_rec["full3_executed"] == 2 * round_triplet_requests(nb)
    assert triplets_rec["full3_executed"] == 2 * unique_block_triples(nb)
    assert triplets_rec["full3_executed"] < fused_rec["full3_executed"]
    assert triplets_rec["full3_hit_rate"] > 0.5

    # --- persist --------------------------------------------------------- #
    history = []
    if RESULTS_PATH.exists():
        history = json.loads(RESULTS_PATH.read_text())
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "n_snps": N_SNPS,
            "n_samples": N_SAMPLES,
            "block_size": BLOCK,
            "small": _SMALL,
            "top_k_sha256": next(iter(set(digests.values()))),
            "cells": records,
        }
    )
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")
