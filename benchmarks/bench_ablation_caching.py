"""Ablation: round-operand caching on 4 virtual GPUs.

Sweeps the byte-bounded operand cache (``cache_mb``: off -> tight ->
unbounded) on 4 virtual GPUs, one host thread each, over a >=64-SNP
dense workload, and reports wall seconds, cache hit rate, executed
tensor-op volume and ``quads_per_second_scaled``.  Every cell is
asserted bit-identical to the cache-off reference.

Wall seconds are measured after one discarded warm-up search (imports,
allocator and BLAS start-up would otherwise land on the first cell), as
each cell's median over ``REPEATS`` repeats whose cell order alternates.

Results append to ``BENCH_caching.json`` next to this file, one record per
invocation, so regressions are visible across commits.

Honesty note on the speedup column: the *executed* 3-way/combine volume
drops by >5x with the cache on (that is what a real GPU saves), but the
CPU-simulated wall clock is dominated by ``applyScore`` (per-quad unique,
not cacheable) and the device threads contend for the GIL.  The >=1.5x
wall-clock bar is therefore asserted only when the host has >=2 physical
cores; on a single-core host the assertion falls back to the hit-rate and
executed-volume bars, and the wall-clock ratio is merely reported.

Set ``EPI4TENSOR_BENCH_SMALL=1`` for a CI-sized workload.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.perfmodel.workload import search_workload

from conftest import print_table

_SMALL = os.environ.get("EPI4TENSOR_BENCH_SMALL") == "1"
N_SNPS = 32 if _SMALL else 64
N_SAMPLES = 256 if _SMALL else 512
BLOCK = 8
N_GPUS = 4
REPEATS = 3
RESULTS_PATH = Path(__file__).with_name("BENCH_caching.json")


def _host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run(ds, cache_mb):
    config = SearchConfig(block_size=BLOCK, cache_mb=cache_mb, top_k=5)
    search = Epi4TensorSearch(ds, config, n_gpus=N_GPUS)
    start = time.perf_counter()
    result = search.run()
    wall = time.perf_counter() - start
    return result, wall


def test_caching_ablation(benchmark):
    ds = generate_random_dataset(N_SNPS, N_SAMPLES, seed=42)

    cells = [("off", None), ("tight", 0.05), ("unbounded", float("inf"))]

    def sweep():
        _run(ds, None)  # warm-up, discarded
        repeats = {label: [] for label, _ in cells}
        for repeat in range(REPEATS):
            order = cells if repeat % 2 == 0 else cells[::-1]
            for label, cache_mb in order:
                repeats[label].append(_run(ds, cache_mb))
        # Each cell reports its median-wall repeat (REPEATS is odd).
        medians = {
            label: sorted(runs, key=lambda run: run[1])[REPEATS // 2]
            for label, runs in repeats.items()
        }
        return [(label, cache_mb, *medians[label]) for label, cache_mb in cells]

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)

    reference = runs[0][2]
    rows = []
    records = []
    base_wall = runs[0][3]
    for label, cache_mb, result, wall in runs:
        # Hard correctness bar: bit-identical to the cache-off run.
        assert result.solution == reference.solution
        assert result.top_solutions == reference.top_solutions
        stats = result.cache_stats
        hit_rate = stats.hit_rate if stats else 0.0
        tensor3 = result.metrics.total(
            "epi4_tensor_ops_total", form="raw", kernel="tensor3"
        )
        speedup = base_wall / wall if wall > 0 else float("inf")
        rows.append(
            [
                label,
                f"{wall:8.2f}",
                f"{100 * hit_rate:5.1f}%",
                f"{tensor3:.2e}",
                f"{result.quads_per_second_scaled:.3e}",
                f"{speedup:5.2f}x",
            ]
        )
        records.append(
            {
                "cache": label,
                "cache_mb": None if cache_mb is None else float(cache_mb),
                "wall_seconds": wall,
                "hit_rate": hit_rate,
                "tensor3_ops_executed": tensor3,
                "quads_per_second_scaled": result.quads_per_second_scaled,
                "speedup_vs_off": speedup,
            }
        )

    print_table(
        f"operand cache (M={N_SNPS}, N={N_SAMPLES}, "
        f"B={BLOCK}, {N_GPUS} virtual GPUs, {_host_cores()} host cores; "
        f"wall = median of {REPEATS} after a warm-up)",
        ["config", "wall s", "hits", "tensor3 ops", "quads/s", "speedup"],
        rows,
    )

    # --- assertions ------------------------------------------------------ #
    unbounded = records[2]
    assert unbounded["hit_rate"] > 0.5, "cache must serve >50% of lookups"

    # Executed 3-way volume must collapse to the analytic unique-pair total.
    wl = search_workload(N_SNPS, N_SAMPLES, BLOCK, cache_operands=True)
    assert unbounded["tensor3_ops_executed"] == wl.tensor3_ops
    full = search_workload(N_SNPS, N_SAMPLES, BLOCK)
    # The cut deepens with the block count (more enclosing triples per
    # pair): >4x at nb=4 (CI-small), >5x at nb>=8 (full run).
    cut_bar = 4 if _SMALL else 5
    assert full.tensor3_ops > cut_bar * wl.tensor3_ops

    best = max(r["speedup_vs_off"] for r in records[1:])
    if _host_cores() >= 2:
        assert best >= 1.5, (
            f"expected >=1.5x wall-clock speedup with caching on a "
            f"{_host_cores()}-core host, got {best:.2f}x"
        )

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
            "n_gpus": N_GPUS,
            "host_cores": _host_cores(),
            "small": _SMALL,
            "cells": records,
        }
    )
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")
