"""Ablation: admissible K2 bound pruning (branch-and-bound gate).

Three configurations of the same workload:

- ``prune-off``      — the exhaustive fused path, every mask-valid
  position completed and scored (the pre-pruning baseline);
- ``prune-on``       — the 48-cell bound gate between mask compaction
  and completion;
- ``prune-on+shard`` — the gate under the sharded coordinator (2 inline
  shards), each shard pruning against its own candidates only.

Reported per cell: total wall, scored cells and the fraction of
mask-valid quads pruned.  Hard bars:

- every cell's ranked top-k digest (``top_k_sha256``) is identical —
  pruning is a pure work eliminator, never a result perturbation;
- ``prune-on`` executes >=3x fewer score cells than ``prune-off``;
- conservation: scored + pruned quads == the baseline's scored quads.

Results append to ``BENCH_pruning.json`` next to this file.
Set ``EPI4TENSOR_BENCH_SMALL=1`` for a CI-sized workload.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.dist import run_sharded
from repro.obs.manifest import solutions_digest

from conftest import print_table

_SMALL = os.environ.get("EPI4TENSOR_BENCH_SMALL") == "1"
N_SNPS = 32 if _SMALL else 48
N_SAMPLES = 128 if _SMALL else 256
BLOCK = 8
TOP_K = 10
RESULTS_PATH = Path(__file__).with_name("BENCH_pruning.json")


def _search(ds, prune):
    config = SearchConfig(
        block_size=BLOCK, top_k=TOP_K, prune=prune, batch_rounds=4
    )
    search = Epi4TensorSearch(ds, config)
    start = time.perf_counter()
    result = search.run()
    wall = time.perf_counter() - start
    return search.metrics, result.top_solutions, wall


def _sharded(ds, tmp_dir):
    config = SearchConfig(
        block_size=BLOCK,
        top_k=TOP_K,
        prune=True,
        batch_rounds=4,
    )
    start = time.perf_counter()
    merged = run_sharded(
        ds, config, n_shards=2, out_dir=tmp_dir, inline=True
    )
    wall = time.perf_counter() - start
    return merged.metrics, merged.solutions, wall


def test_pruning_ablation(benchmark, tmp_path):
    ds = generate_random_dataset(N_SNPS, N_SAMPLES, seed=42)

    def sweep():
        return [
            ("prune-off", *_search(ds, prune=False)),
            ("prune-on", *_search(ds, prune=True)),
            ("prune-on+shard", *_sharded(ds, tmp_path)),
        ]

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)

    digests = {
        label: solutions_digest(solutions)
        for label, _, solutions, _ in runs
    }
    rows, records = [], []
    for label, metrics, solutions, wall in runs:
        valid = metrics.total("epi4_applyscore_valid_total")
        pruned = metrics.total("epi4_prune_quads_total")
        scored_cells = int(valid) * 81 * 2
        prune_frac = pruned / (valid + pruned) if valid + pruned else 0.0
        rows.append(
            [
                label,
                f"{wall:7.2f}",
                f"{scored_cells:.2e}",
                f"{100 * prune_frac:5.1f}%",
            ]
        )
        records.append(
            {
                "config": label,
                "wall_seconds": wall,
                "quads_scored": int(valid),
                "quads_pruned": int(pruned),
                "score_cells_executed": scored_cells,
                "prune_fraction": prune_frac,
                "top_k_sha256": digests[label],
            }
        )

    print_table(
        f"bound pruning ablation (M={N_SNPS}, N={N_SAMPLES}, B={BLOCK}, "
        f"k={TOP_K})",
        ["config", "wall s", "cells", "pruned"],
        rows,
    )

    # --- assertions ------------------------------------------------------ #
    # Bit-identity: pruning may not move a single ranked result.
    assert len(set(digests.values())) == 1, digests

    off_rec, on_rec, shard_rec = records
    # Conservation: the gate accounts every baseline-scored quad exactly
    # once, as a survivor or as pruned.
    for rec in (on_rec, shard_rec):
        assert rec["quads_scored"] + rec["quads_pruned"] == (
            off_rec["quads_scored"]
        ), rec
    assert off_rec["quads_pruned"] == 0

    # The headline bar: >=3x scored-cell reduction from the bound gate.
    reduction = off_rec["score_cells_executed"] / on_rec["score_cells_executed"]
    assert reduction >= 3.0, reduction

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
            "top_k": TOP_K,
            "small": _SMALL,
            "top_k_sha256": next(iter(set(digests.values()))),
            "scored_cell_reduction": reduction,
            "cells": records,
        }
    )
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")
