"""Ablation: batched-GEMM round fusion and stream overlap.

Five configurations of the same workload (operand cache on throughout, so
the tensor3 sweep count is already minimal and the launch ablation
isolates the tensor4 round GEMMs this PR fuses):

- ``serial``          — ``batch_rounds=1``, staged inline: one launch
  per round, the pre-fusion baseline;
- ``batch=4/8/16``    — the batched pipeline at increasing fusion widths
  (launches collapse, logical problems stay constant);
- ``batch=8+overlap`` — adds double-buffered operand staging on a host
  stream (``n_streams=2``), overlapping staging with scoring.

Reported per cell: total wall, fused launch counts per kernel, the
launch-collapse factor vs serial, and the staged-overlap seconds.  Hard
bars:

- every cell's ranked top-k digest (``top_k_sha256``) is identical —
  fusion must not move a single result bit;
- each cell's executed launch counts equal the closed forms of
  :func:`~repro.perfmodel.workload.search_gemm_launches`;
- logical GEMM problems (``gemm_problems``) are batch-invariant: fusion
  changes how work is launched, never how much work exists;
- total launches collapse >= 4x at ``batch_rounds=8`` (5.01x at nb=12);
- the operand-cache peak is the same in every cell and within the
  search's §3.3 ``operand cache`` memory charge: batching never changes
  what the cache holds.  (The peak sits below the charge because pruning
  leaves some completed-triplet tables uncomputed.)

Results append to ``BENCH_batching.json`` next to this file.
Set ``EPI4TENSOR_BENCH_SMALL=1`` for a CI-sized workload.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.obs.manifest import solutions_digest
from repro.perfmodel.workload import search_gemm_launches

from conftest import print_table

_SMALL = os.environ.get("EPI4TENSOR_BENCH_SMALL") == "1"
N_SNPS = 48  # nb=12 in both sizes: the collapse ratio needs the depth
N_SAMPLES = 128 if _SMALL else 256
BLOCK = 4
RESULTS_PATH = Path(__file__).with_name("BENCH_batching.json")

CELLS = [
    ("serial", dict(batch_rounds=1)),
    ("batch=4", dict(batch_rounds=4)),
    ("batch=8", dict(batch_rounds=8)),
    ("batch=16", dict(batch_rounds=16)),
    ("batch=8+overlap", dict(batch_rounds=8, n_streams=2)),
]


def _run(ds, extra):
    config = SearchConfig(
        block_size=BLOCK, top_k=5, cache_mb=float("inf"), **extra
    )
    search = Epi4TensorSearch(ds, config)
    start = time.perf_counter()
    result = search.run()
    wall = time.perf_counter() - start
    return search, result, wall


def test_batching_ablation(benchmark):
    ds = generate_random_dataset(N_SNPS, N_SAMPLES, seed=42)

    def sweep():
        return [(label, *_run(ds, extra)) for label, extra in CELLS]

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)

    digests = {label: solutions_digest(r.top_solutions) for label, _, r, _ in runs}
    nb = runs[0][2].block_scheme.n_snps // BLOCK

    rows, records = [], []
    serial_launches = sum(
        runs[0][2].metrics.total("epi4_kernel_launches_total", kernel=k)
        for k in ("tensor3", "tensor4")
    )
    for (label, extra), (_, search, result, wall) in zip(CELLS, runs):
        launches = result.metrics.sum_by("epi4_kernel_launches_total", "kernel")
        t3, t4 = int(launches["tensor3"]), int(launches["tensor4"])
        collapse = serial_launches / (t3 + t4)
        overlap_s = search.metrics.total("epi4_stage_overlap_seconds_total")
        rows.append(
            [
                label,
                f"{wall:7.2f}",
                t4,
                t3,
                t3 + t4,
                f"{collapse:5.2f}x",
                f"{overlap_s:7.3f}",
            ]
        )
        records.append(
            {
                "config": label,
                "batch_rounds": extra.get("batch_rounds", 1),
                "n_streams": extra.get("n_streams", 1),
                "wall_seconds": wall,
                "tensor4_launches": t4,
                "tensor3_launches": t3,
                "launch_collapse_vs_serial": collapse,
                "tensor4_problems": int(
                    result.metrics.total("epi4_gemm_problems_total", kernel="tensor4")
                ),
                "stage_overlap_seconds": overlap_s,
                "cache_peak_bytes": result.cache_stats.peak_bytes,
                "cache_charge_bytes": search.memory_estimate.components[
                    "operand cache"
                ],
                "top_k_sha256": digests[label],
            }
        )

    print_table(
        f"round batching ablation (M={N_SNPS}, N={N_SAMPLES}, B={BLOCK})",
        ["config", "wall s", "t4", "t3", "total", "collapse", "overlap s"],
        rows,
    )

    # --- assertions ------------------------------------------------------ #
    # Bit-identity: fusion may not move a single ranked result.
    assert len(set(digests.values())) == 1, digests

    # Executed launch counts match the analytic closed forms, per cell.
    for rec, (label, extra) in zip(records, CELLS):
        expected = search_gemm_launches(
            nb, batch_rounds=rec["batch_rounds"], cache_operands=True
        )
        assert rec["tensor4_launches"] == expected["tensor4"], label
        assert rec["tensor3_launches"] == expected["tensor3"], label

    # Logical problems are batch-invariant — fusion launches the same work.
    problems = {rec["tensor4_problems"] for rec in records}
    assert problems == {
        search_gemm_launches(nb, batch_rounds=1, cache_operands=True)["tensor4"]
    }

    # The cache holds the same bytes at every batch width, within what the
    # up-front fit check charged for it.
    peaks = {rec["cache_peak_bytes"] for rec in records}
    assert len(peaks) == 1, peaks
    for rec in records:
        assert rec["cache_peak_bytes"] <= rec["cache_charge_bytes"], rec["config"]

    # The headline bar: >=4x total launch collapse at batch_rounds=8.
    by_label = {rec["config"]: rec for rec in records}
    assert by_label["batch=8"]["launch_collapse_vs_serial"] >= 4.0
    assert by_label["batch=8+overlap"]["launch_collapse_vs_serial"] >= 4.0

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
