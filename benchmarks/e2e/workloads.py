"""Workloads of the end-to-end benchmark, and the process that runs one.

``bench_e2e.py`` starts this file as a fresh process per workload::

    python benchmarks/e2e/workloads.py run --workload null-m64 --seed 7 ...
    python benchmarks/e2e/workloads.py setup --workload null-m64 --seed 7

``run`` does one discarded warm-up search and set-up probe, the timed
repeats each preceded by a set-up probe, reads the peak RSS, then (with
``--trace 1``) one traced run, and prints one JSON object as its last
stdout line.  ``setup`` (the probe, a child process of ``run``) times
``import repro.core.search`` plus one ``Epi4TensorSearch`` construction
in a process that has not imported ``repro`` yet.

The program only ever receives the generated :class:`Dataset`; the seed,
the planted quad and the pinned digests stay on the benchmark's side.
Nothing outside the standard library is imported at module level, so the
set-up probe's import timing starts cold.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

BLOCK = 8
TOP_K = 10
DEFAULT_SEED = 7
#: Fewest timed repeats in a ``--seconds``-bounded run (so the median
#: has a middle).
MIN_REPEATS = 3
#: Fewest timed set-up probes; ``setup_s`` is their median.
MIN_SETUP_PROBES = 5
#: The warm-up searches the first this-many SNPs at the workload's N.
WARMUP_SNPS = 32
#: Minor allele frequencies of the null datasets span this range, as in
#: ``repro.datasets.generate_random_dataset``.
NULL_MAF_RANGE = (0.05, 0.5)
#: Seed of the planted interaction's four causal SNPs and phenotypes.
#: Fixed so the signal strength, and with it the prune threshold, is the
#: same for every ``--seed``; see ``planted_dataset``.
PLANTED_SEED = 2022
PLANTED_EFFECT = 3.0

CORE_LAYERS = frozenset(
    {
        "tensor.gemm4",
        "tensor.gemm3",
        "device.combine",
        "bounds.quad",
        "complete.quad",
        "complete.full3",
        "k2.score",
        "apply_score",
        "reduce.add_round",
        "reduce.kth",
        "datasets.encode",
        "pairwise.tables",
    }
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: as listed in ``BENCHMARK.json``, which also says why the
            workload exists.
        n_snps / n_samples: dataset shape outside ``--smoke``.
        smoke_shape: ``(n_snps, n_samples)`` under ``--smoke``.
        knobs: ``SearchConfig`` fields; fields the config no longer has
            are dropped and reported (see :func:`build_config`).
        planted: plant one threshold interaction (see
            :func:`planted_dataset`); its quad must rank first.
        journal: run with a fresh round journal per repeat (shard
            workers always keep their own journals).
        shards: ``run_sharded`` shard count (0 = one ``search.run()``).
        threads: threads that generate load at once (search thread plus
            stager, or concurrent shard workers); the BLAS pool of the
            workload's processes is capped at ``nproc // threads`` so the
            run never has more compute threads than cores.
        layers: layers the traced run must see fire.
    """

    name: str
    n_snps: int
    n_samples: int
    knobs: dict[str, Any] = field(default_factory=dict)
    smoke_shape: tuple[int, int] = (32, 128)
    planted: bool = False
    journal: bool = False
    shards: int = 0
    threads: int = 1
    layers: frozenset[str] = CORE_LAYERS


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("null-m64", 64, 1024, {"block_size": BLOCK, "top_k": TOP_K}),
        Workload("wide-n32k", 32, 32768, {"block_size": BLOCK, "top_k": TOP_K}),
        Workload(
            "planted-journal",
            64,
            2048,
            {
                "block_size": BLOCK,
                "top_k": TOP_K,
                "batch_rounds": 8,
                "cache_mb": math.inf,
                "n_streams": 2,
            },
            # At M=32 the planted quad ranks first only from N=1024 up.
            smoke_shape=(32, 1024),
            planted=True,
            journal=True,
            threads=2,
            layers=CORE_LAYERS | {"cache.lookup", "stage.task", "journal.commit"},
        ),
        Workload(
            "sharded-2",
            64,
            1024,
            {"block_size": BLOCK, "top_k": TOP_K, "prune_sync_rounds": 4},
            shards=2,
            threads=2,
            layers=CORE_LAYERS
            | {"journal.commit", "dist.stage_dataset", "dist.merge"},
        ),
    )
}

#: ``top_k_sha256`` of each workload at ``DEFAULT_SEED``, as
#: ``{(name, smoke): digest}``.  ``sharded-2``'s pin is the digest of the
#: *unsharded* search of the same dataset (which is ``null-m64``'s).
PINNED_DIGESTS: dict[tuple[str, bool], str] = {
    ("null-m64", False): "0350fac9c1b421ea4d1b63316580e1f7a7ec1f0a14097c5a0040834d1ed4ff21",
    ("wide-n32k", False): "a972f95df7c11d399e287624bab1589e40da007217d697542ff70ce5032dc846",
    ("planted-journal", False): "2422996a46fdcccb0448594ec9ebb7e38f52e0afc24ee40fcfbf0853f6160cfd",
    ("sharded-2", False): "0350fac9c1b421ea4d1b63316580e1f7a7ec1f0a14097c5a0040834d1ed4ff21",
    ("null-m64", True): "0b91bd66bda835abb73f7f9d4ae4357fe5b21b536c914554e0b648c77ef7499c",
    ("wide-n32k", True): "0b91bd66bda835abb73f7f9d4ae4357fe5b21b536c914554e0b648c77ef7499c",
    ("planted-journal", True): "f41f2f12ddea4f52321018ea1c9ad616373d60ce61e0c2579f91067e8d3373e1",
    ("sharded-2", True): "0b91bd66bda835abb73f7f9d4ae4357fe5b21b536c914554e0b648c77ef7499c",
}


def shape(workload: Workload, smoke: bool) -> tuple[int, int]:
    return workload.smoke_shape if smoke else (workload.n_snps, workload.n_samples)


def planted_blocks(n_blocks: int) -> list[int]:
    """Four distinct blocks spread over the SNP range, so the quad is not
    met in the first round and the threshold tightens part-way."""
    return [(2 * i + 1) * n_blocks // 8 for i in range(4)]


def planted_dataset(n_snps: int, n_samples: int, seed: int):
    """:func:`null_dataset` genotypes from ``seed`` with one planted
    threshold quad.

    The four causal SNPs (one per :func:`planted_blocks` block), their
    genotypes and the phenotypes come from :data:`PLANTED_SEED`; ``seed``
    draws the other SNPs.  With the causal data drawn from ``seed`` too,
    the k-th best score, and so the pruned fraction, varied from 2% to
    93% between seeds, and the wall time with it.
    """
    import numpy as np

    from repro.datasets import Dataset, generate_epistatic_dataset

    rng = np.random.default_rng(PLANTED_SEED)
    quad = tuple(
        block * BLOCK + int(rng.integers(BLOCK))
        for block in planted_blocks(n_snps // BLOCK)
    )
    causal, quad = generate_epistatic_dataset(
        n_snps,
        n_samples,
        interacting_snps=quad,
        effect_size=PLANTED_EFFECT,
        model="threshold",
        seed=PLANTED_SEED,
    )
    genotypes = np.array(null_dataset(n_snps, n_samples, seed).genotypes)
    genotypes[list(quad)] = causal.genotypes[list(quad)]
    return Dataset(genotypes=genotypes, phenotypes=causal.phenotypes), quad


def null_dataset(n_snps: int, n_samples: int, seed: int):
    """Hardy-Weinberg genotypes and half-case phenotypes with no signal.

    Unlike ``generate_random_dataset``, which draws each SNP's minor
    allele frequency independently, the frequencies here are evenly
    spaced over :data:`NULL_MAF_RANGE` and only their order is drawn from
    ``seed``.  The pruned fraction depends on how many SNPs are rare: at
    M=64, N=1024 it ranged from 26% to 73% over 20 seeds with independent
    frequencies, and from 47% to 57% with these.  Over ten seeds the wall
    time followed it, from 3.0 to 4.0 s.
    """
    import numpy as np

    from repro.datasets import Dataset

    rng = np.random.default_rng(seed)
    maf = rng.permutation(np.linspace(*NULL_MAF_RANGE, n_snps))[:, None]
    u = rng.random((n_snps, n_samples))
    genotypes = np.zeros((n_snps, n_samples), dtype=np.int8)
    genotypes[u < 2.0 * maf * (1.0 - maf)] = 1
    genotypes[u >= 1.0 - maf**2] = 2
    phenotypes = np.zeros(n_samples, dtype=np.bool_)
    phenotypes[: n_samples // 2] = True
    rng.shuffle(phenotypes)
    return Dataset(genotypes=genotypes, phenotypes=phenotypes)


def make_dataset(workload: Workload, seed: int, smoke: bool):
    """``(dataset, planted quad or None)`` for ``seed``."""
    n_snps, n_samples = shape(workload, smoke)
    if workload.planted:
        return planted_dataset(n_snps, n_samples, seed)
    return null_dataset(n_snps, n_samples, seed), None


def build_config(knobs: dict[str, Any]):
    """``(SearchConfig, dropped knob names)``.

    Knobs the config no longer has are dropped and logged, so a change
    that deletes a knob changes what a workload measures without breaking
    the benchmark.
    """
    from repro.core.search import SearchConfig

    fields = SearchConfig.__dataclass_fields__
    dropped = sorted(k for k in knobs if k not in fields)
    for name in dropped:
        print(f"bench_e2e: SearchConfig has no field {name!r}; knob dropped", file=sys.stderr)
    return SearchConfig(**{k: v for k, v in knobs.items() if k in fields}), dropped


@dataclass
class Outcome:
    """One complete search of a workload."""

    wall_s: float
    solutions: list
    metrics: Any
    shard_walls: list[float] = field(default_factory=list)
    #: Main-thread span seconds inside ``wall_s`` (traced runs only).
    attributed_s: float = 0.0


def run_once(workload: Workload, dataset, config, scratch: str, tracer=None) -> Outcome:
    """One complete search: ``search.run()`` or ``run_sharded``, timed.

    Journals and shard directories live in a fresh directory under
    ``scratch`` that is removed afterwards (a reused journal would resume
    and skip the work).  With a ``tracer`` the layer wrappers are
    installed around construction and run.
    """
    from contextlib import nullcontext

    from repro.core.search import Epi4TensorSearch
    from repro.dist import run_sharded

    work = tempfile.mkdtemp(dir=scratch)
    try:
        with tracer.installed(shards=workload.shards > 0) if tracer else nullcontext():
            search = None if workload.shards else Epi4TensorSearch(dataset, config)
            journal = os.path.join(work, "journal") if workload.journal else None
            before = tracer.main_root_s if tracer else 0.0
            start = time.perf_counter()
            if search is None:
                merged = run_sharded(
                    dataset,
                    config,
                    n_shards=workload.shards,
                    out_dir=work,
                    max_procs=workload.shards,
                )
            else:
                result = search.run(journal_path=journal)
            wall = time.perf_counter() - start
        if search is None:
            walls = [shard["wall_seconds"] for shard in merged.shards]
            outcome = Outcome(wall, merged.solutions, merged.metrics, walls)
        else:
            outcome = Outcome(wall, result.top_solutions, result.metrics)
        if tracer:
            outcome.attributed_s = tracer.main_root_s - before
            _absorb_shard_layers(tracer, work, workload.shards)
        return outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _absorb_shard_layers(tracer, work: str, n_shards: int) -> None:
    from layers import shard_layers_name

    for index in range(n_shards):
        with open(os.path.join(work, shard_layers_name(index, n_shards))) as fh:
            tracer.absorb(json.load(fh))


def run_counts(metrics) -> dict[str, float]:
    """The program's own counters that the per-layer metrics use."""
    return {
        "valid": metrics.total("epi4_applyscore_valid_total"),
        "pruned": metrics.total("epi4_prune_quads_total"),
        "rounds_elided": metrics.total("epi4_prune_rounds_total"),
        "rounds": metrics.total("epi4_rounds_total"),
        "tensor_ops": metrics.total("epi4_tensor_ops_total", form="raw"),
        "score_cells": metrics.total("epi4_score_cells_total"),
        "cache_hits": metrics.total("epi4_cache_lookups_total", result="hit"),
        "cache_misses": metrics.total("epi4_cache_lookups_total", result="miss"),
        "stage_overlap_s": metrics.total("epi4_stage_overlap_seconds_total"),
        "threshold_syncs": metrics.total("epi4_prune_sync_total"),
    }


def rescore_mismatches(dataset, solutions) -> list[str]:
    """Quads whose reported score differs from a direct recount.

    Independent of the tensor path: per-class contingency tables are
    histogrammed from the raw genotypes and scored with the reference K2.
    """
    from repro.contingency.brute_force import contingency_tables_by_class
    from repro.scoring.k2 import K2Score

    k2 = K2Score()
    bad = []
    for sol in solutions:
        controls, cases = contingency_tables_by_class(dataset, sol.quad)
        expected = float(k2(controls, cases, order=4))
        if not math.isclose(sol.score, expected, rel_tol=1e-12, abs_tol=1e-9):
            bad.append(f"{sol.quad}: reported {sol.score!r}, recount {expected!r}")
    return bad


def judge(ops: list[dict], reference: str, planted) -> int:
    """Mark each op's ``failure`` and return the number that failed.

    An op fails if it raised, if its ``top_k_sha256`` differs from
    ``reference``, or, on a planted workload, if the planted quad is not
    rank 1.
    """
    failed = 0
    for op in ops:
        if op.get("error"):
            op["failure"] = op["error"]
        elif op["digest"] != reference:
            op["failure"] = f"top_k_sha256 {op['digest'][:12]} != reference {reference[:12]}"
        elif planted is not None and op["rank1"] != list(planted):
            op["failure"] = f"planted quad {planted} not rank 1 (got {op['rank1']})"
        else:
            op["failure"] = None
        failed += op["failure"] is not None
    return failed


def _op(workload: Workload, dataset, config, scratch: str, tracer=None):
    """``(op record, outcome or None)``; an exception fails the op only."""
    from repro.obs.manifest import solutions_digest

    try:
        outcome = run_once(workload, dataset, config, scratch, tracer)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        import traceback

        traceback.print_exc()
        return {"wall_s": None, "error": f"{type(exc).__name__}: {exc}"}, None
    return {
        "wall_s": outcome.wall_s,
        "digest": solutions_digest(outcome.solutions),
        "rank1": list(outcome.solutions[0].quad) if outcome.solutions else None,
        "error": None,
    }, outcome


def peak_rss_mb(sharded: bool) -> float:
    """Peak RSS of this process, plus on a sharded workload its largest
    reaped child (a shard worker: the set-up probes are children too, but
    a worker imports and builds all a probe does, then searches), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if sharded else 0
    return (own + children) / 1024.0


def setup_probe_child(name: str, seed: int, smoke: bool) -> float:
    """``setup_s`` of one fresh ``setup`` process (see :func:`setup_probe`)."""
    argv = [sys.executable, os.path.abspath(__file__), "setup", "--workload", name,
            "--seed", str(seed)] + (["--smoke"] if smoke else [])
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def run_workload(
    name: str,
    seed: int,
    smoke: bool,
    repeats: int | None,
    seconds: float | None,
    trace: bool,
    scratch: str,
) -> dict[str, Any]:
    """Warm-up, timed repeats with set-up probes between them, RSS,
    reference checks and the traced run."""
    import dataclasses

    from layers import LayerTracer, layer_metrics

    workload = WORKLOADS[name]
    dataset, planted = make_dataset(workload, seed, smoke)
    config, dropped = build_config(workload.knobs)

    # The first search in a fresh process is intermittently ~2x slower,
    # and so is the first set-up probe after a pause (0.66 vs 0.33 s), so
    # one discarded search of the same config and one discarded probe warm
    # the host up.
    run_once(workload, dataset.subset_snps(range(WARMUP_SNPS)), config, scratch)
    setup_probe_child(name, seed, smoke)

    # The host's speed moves in bursts of a few seconds; a probe before
    # each repeat spreads the set-up samples over the whole run instead of
    # letting one burst hit all of them.
    ops: list[dict] = []
    setup: list[float] = []
    witness = None  # the first successful outcome, rescored below
    start = time.perf_counter()
    while True:
        setup.append(setup_probe_child(name, seed, smoke))
        op, outcome = _op(workload, dataset, config, scratch)
        ops.append(op)
        witness = witness or outcome
        if repeats is not None:
            if len(ops) >= repeats:
                break
            continue
        elapsed = time.perf_counter() - start
        walls = [o["wall_s"] for o in ops if o["wall_s"] is not None] or [0.0]
        if len(ops) >= MIN_REPEATS and elapsed + statistics.median(walls) > seconds:
            break
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(setup_probe_child(name, seed, smoke))
    rss = peak_rss_mb(workload.shards > 0)

    checks: list[str] = []
    pinned = PINNED_DIGESTS.get((name, smoke)) if seed == DEFAULT_SEED else None
    if workload.shards:
        from repro.obs.manifest import solutions_digest

        solo = run_once(dataclasses.replace(workload, shards=0), dataset, config, scratch)
        reference, source = solutions_digest(solo.solutions), "unsharded"
        if pinned is not None and pinned != reference:
            checks.append(f"unsharded digest {reference[:12]} != pinned {pinned[:12]}")
    elif pinned is not None:
        reference, source = pinned, "pinned"
    else:
        first = next((o for o in ops if not o.get("error")), None)
        reference, source = (first["digest"], "repeat-1") if first else ("", "none")
    if witness is not None:
        checks += rescore_mismatches(dataset, witness.solutions)

    per_layer: dict[str, float] = {}
    fired: list[str] = []
    if trace:
        tracer = LayerTracer()
        op, traced = _op(workload, dataset, config, scratch, tracer)
        op["traced"] = True
        ops.append(op)
        fired = tracer.fired()
        untraced = [o["wall_s"] for o in ops[:-1] if o["wall_s"] is not None]
        if traced is not None and untraced:
            per_layer = layer_metrics(
                tracer,
                run_counts(traced.metrics),
                wall_s=traced.wall_s,
                run_attributed_s=traced.attributed_s,
                untraced_wall_s=statistics.median(untraced),
                shard_walls=traced.shard_walls,
            )

    failed = judge(ops, reference, planted)
    n_snps, n_samples = shape(workload, smoke)
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "n_snps": n_snps,
        "n_samples": n_samples,
        "knobs": {k: (str(v) if isinstance(v, float) and math.isinf(v) else v) for k, v in workload.knobs.items()},
        "dropped_knobs": dropped,
        "planted_quad": list(planted) if planted else None,
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
        "reference": source,
        "reference_digest": reference,
        "checks": checks,
        "setup_samples_s": setup,
        "peak_rss_mb": rss,
        "per_layer": per_layer,
        "fired": fired,
    }


def setup_probe(name: str, seed: int, smoke: bool) -> dict[str, float]:
    """Seconds to import the search module and construct one search."""
    start = time.perf_counter()
    import repro.core.search as search_module

    import_s = time.perf_counter() - start
    workload = WORKLOADS[name]
    dataset, _ = make_dataset(workload, seed, smoke)
    config, _ = build_config(workload.knobs)
    start = time.perf_counter()
    search_module.Epi4TensorSearch(dataset, config)
    construct_s = time.perf_counter() - start
    return {"setup_s": import_s + construct_s, "import_s": import_s, "construct_s": construct_s}


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for
    spawned workers, so this process leaves nothing running behind."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--scratch")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps(setup_probe(args.workload, args.seed, args.smoke)))
        return 0
    if (args.repeats is None) == (args.seconds is None):
        parser.error("run needs exactly one of --repeats and --seconds")
    try:
        result = run_workload(
            args.workload,
            args.seed,
            args.smoke,
            args.repeats,
            args.seconds,
            bool(args.trace),
            args.scratch,
        )
    finally:
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
