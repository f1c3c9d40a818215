"""``epi4tensor`` command-line interface.

Subcommands:

- ``search``   — run a fourth-order search on a dataset file (``.npz`` or
  CSV) or on a freshly generated synthetic dataset.
- ``predict``  — project paper-scale performance for a GPU/dataset point.
- ``figures``  — print the modelled series behind the paper's Fig. 2,
  Fig. 3, Table 1 and Table 2.
- ``generate`` — write a synthetic dataset to disk.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys


class _UsageError(Exception):
    """A flag value rejected before the search starts (exit code 2)."""


@contextlib.contextmanager
def _flag_values():
    """Report a value that loading or configuring rejects as a usage
    error, the way argparse reports its own (one ``error:`` line after
    the usage, exit code 2, no traceback)."""
    try:
        yield
    except KeyError as exc:  # gpu_by_name
        raise _UsageError(exc.args[0]) from None
    except (OSError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


def _add_search(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    p = sub.add_parser("search", help="run an exhaustive epistasis search")
    p.add_argument(
        "--input",
        help=".npz or .csv dataset, or a PLINK prefix (.ped/.map); omit to generate",
    )
    p.add_argument("--snps", type=int, default=48, help="synthetic SNP count")
    p.add_argument("--samples", type=int, default=512, help="synthetic sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--block-size", type=int, default=16)
    p.add_argument("--gpu", default="A100 PCIe", help="device model to account against")
    p.add_argument("--n-gpus", type=int, default=1)
    p.add_argument(
        "--engine", default=None, choices=(None, "and_popc", "xor_popc"),
        help="override the device's native tensor-op kind",
    )
    p.add_argument("--top-k", type=int, default=1, help="ranked results to report")
    p.add_argument(
        "--permutations", type=int, default=0,
        help="if > 0, estimate a permutation p-value for the best result",
    )
    p.add_argument("--report", help="write a full text report to this path")
    p.add_argument(
        "--qc", action="store_true",
        help="apply MAF/HWE quality control before searching",
    )
    p.add_argument(
        "--selfcheck", action="store_true",
        help="re-verify every round's winner through an independent "
        "bitwise path (aborts on any disagreement)",
    )
    p.add_argument(
        "--cache-mb", type=float, default=None, metavar="MB",
        help="round-operand cache budget in MB (0 disables, 'inf' = "
        "unbounded; charged against device memory before the search runs)",
    )
    p.add_argument(
        "--batch-rounds", type=int, default=1, metavar="R",
        help="evaluation rounds fused per batched GEMM launch group "
        "(1 = one launch per round, the seed loop; results are "
        "bit-identical for any value)",
    )
    p.add_argument(
        "--n-streams", type=int, default=1, metavar="S",
        help="concurrent rounds per device: feeds the stream performance "
        "model and stages S-1 round groups ahead on a host stream while "
        "the current group scores (1 = stage inline; results are "
        "bit-identical for any value)",
    )
    p.add_argument(
        "--prune", default="on", choices=("on", "off"),
        help="admissible K2 branch-and-bound gate: skip completing and "
        "scoring quads (and whole rounds) whose corner-count lower bound "
        "provably cannot beat the current top-k threshold — results are "
        "bit-identical, only the executed score cells shrink "
        "(default: on; K2 fused path only)",
    )
    p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="crash-safe round journal: one fsynced CRC frame per "
        "committed outer iteration; a process killed at any byte offset "
        "resumes exactly-once with a bit-identical top-k",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record the span tree (run/device/outer/round/...) and write "
        "it as JSONL to this path (enables the tracer; see "
        "docs/observability.md)",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's unified metrics registry as Prometheus "
        "text exposition to this path",
    )
    p.add_argument(
        "--manifest-out", default=None, metavar="PATH",
        help="write the deterministic run manifest (config, dataset "
        "digest, seeds, versions, ranked-solution digest) as JSON",
    )
    p.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split the outer Wi loop into N communication-free shards "
        "run in separate processes, then merge deterministically "
        "(bit-identical to an unsharded run; see docs/distributed.md)",
    )
    p.add_argument(
        "--shard-index", type=int, default=None, metavar="I",
        help="with --shards N: run only shard I in this process and "
        "write its artifact into --dist-dir (manual per-node mode for "
        "real clusters; merge later with --merge)",
    )
    p.add_argument(
        "--dist-dir", default="epi4-shards", metavar="DIR",
        help="shared output directory for shard journals, artifacts and "
        "the merged manifest/metrics (default: epi4-shards)",
    )
    p.add_argument(
        "--max-procs", type=int, default=None, metavar="P",
        help="concurrent shard worker processes (default: all shards)",
    )
    p.add_argument(
        "--shard-restarts", type=int, default=2, metavar="R",
        help="times a dead shard worker is respawned (journal-resumed) "
        "before the run aborts (default: 2)",
    )
    p.add_argument(
        "--merge", default=None, metavar="DIR",
        help="merge previously written shard artifacts from DIR and "
        "print the global result (no search is run)",
    )
    return p


def _add_predict(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("predict", help="project paper-scale performance")
    p.add_argument("--gpu", default="A100 PCIe")
    p.add_argument("--n-gpus", type=int, default=1)
    p.add_argument("--snps", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--block-size", type=int, default=32)


def _add_figures(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("figures", help="print modelled evaluation series")
    p.add_argument(
        "which", choices=("table1", "fig2", "fig3", "table2", "ratios", "all"),
    )
    p.add_argument(
        "--csv", metavar="DIR",
        help="also export machine-readable CSVs into this directory",
    )


def _add_qc(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("qc", help="quality-control a dataset")
    p.add_argument("input", help=".npz/.csv dataset or PLINK prefix")
    p.add_argument("--min-maf", type=float, default=0.05)
    p.add_argument("--hwe-alpha", type=float, default=1e-6)
    p.add_argument("--output", help="write the filtered dataset here (.npz)")


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("output", help="output .npz path")
    p.add_argument("--snps", type=int, default=64)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--plant-interaction", action="store_true",
        help="embed a ground-truth fourth-order interaction",
    )


def _load_or_generate(args: argparse.Namespace):
    from repro.datasets import (
        generate_random_dataset,
        load_dataset,
        load_dataset_csv,
        load_plink,
    )

    if args.input:
        if args.input.endswith(".csv"):
            dataset = load_dataset_csv(args.input)
        elif args.input.endswith(".npz"):
            dataset = load_dataset(args.input)
        elif os.path.exists(args.input + ".ped"):
            dataset = load_plink(args.input, missing="drop")
        else:
            dataset = load_dataset(args.input)
        print(f"loaded {dataset}")
    else:
        dataset = generate_random_dataset(args.snps, args.samples, seed=args.seed)
        print(f"generated {dataset}")
    return dataset


def _search_dataset(args: argparse.Namespace):
    """The dataset a search runs on: loaded or generated, then QC'd if
    ``--qc`` is set."""
    dataset = _load_or_generate(args)
    if args.qc:
        from repro.datasets.qc import apply_qc

        dataset, qc_report = apply_qc(dataset)
        print(qc_report.summary())
    return dataset


def _search_config_from_args(args: argparse.Namespace):
    """Build the fourth-order :class:`SearchConfig` from parsed flags
    (shared by the plain, sharded-coordinator and shard-worker modes)."""
    from repro.core.search import SearchConfig

    return SearchConfig(
        block_size=args.block_size,
        engine_kind=args.engine,
        top_k=args.top_k,
        selfcheck=args.selfcheck,
        cache_mb=args.cache_mb,
        batch_rounds=args.batch_rounds,
        n_streams=args.n_streams,
        prune=args.prune == "on",
    )


def _print_merged(merged, names=None) -> None:
    for rank, sol in enumerate(merged.solutions, start=1):
        w, x, y, z = sol.quad
        labels = (
            f"  {names[w]}, {names[x]}, {names[y]}, {names[z]}"
            if names is not None
            else ""
        )
        print(f"#{rank}: ({w}, {x}, {y}, {z}){labels}  score {sol.score:.6f}")
    print(f"shards    : {merged.n_shards} over {merged.nb} outer iterations")
    print(f"digest    : top_k_sha256 {merged.top_k_sha256}")


def _cmd_merge(args: argparse.Namespace) -> int:
    """``--merge DIR``: reduce previously written shard artifacts."""
    from repro.dist import merge_shards
    from repro.dist.coordinator import _export_merged

    merged = merge_shards(args.merge)
    _export_merged(merged, args.merge)
    _print_merged(merged)
    print(f"manifest  : written to {args.merge}/merged-manifest.json")
    return 0


def _cmd_sharded(args: argparse.Namespace) -> int:
    """``--shards N`` (coordinator) / ``--shards N --shard-index I``
    (single-shard worker, for manual per-node runs)."""
    from repro.dist import run_shard, run_sharded
    from repro.dist.coordinator import DATASET_NAME, plan_run
    from repro.dist.worker import build_request
    from repro.obs.manifest import _config_dict

    if args.shards is None or args.shards < 1:
        raise _UsageError("--shard-index requires --shards N (N >= 1)")
    # Plan deterministically (every node derives the same plan from the
    # same dataset/flags) before anything is written, so a rejected flag
    # value leaves no --dist-dir behind.
    with _flag_values():
        dataset = _search_dataset(args)
        config = _search_config_from_args(args)
        plan = plan_run(
            dataset, config, n_shards=args.shards, spec_name=args.gpu,
            n_gpus=args.n_gpus,
        )

    if args.shard_index is None:
        merged = run_sharded(
            dataset,
            config,
            n_shards=args.shards,
            out_dir=args.dist_dir,
            spec_name=args.gpu,
            n_gpus=args.n_gpus,
            max_procs=args.max_procs,
            max_restarts=args.shard_restarts,
            plan=plan,
        )
        _print_merged(merged, dataset.snp_names)
        print(f"manifest  : written to {args.dist_dir}/merged-manifest.json")
        if args.report:
            from repro.reporting import format_merged_report

            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(format_merged_report(merged))
            print(f"report    : written to {args.report}")
        return 0

    # Worker mode: execute one shard of the plan, export.
    from repro.datasets import save_dataset

    if not 0 <= args.shard_index < args.shards:
        raise _UsageError(
            f"--shard-index must be in [0, {args.shards}), "
            f"got {args.shard_index}"
        )
    os.makedirs(args.dist_dir, exist_ok=True)
    dataset_path = os.path.join(args.dist_dir, DATASET_NAME)
    if not os.path.exists(dataset_path):
        save_dataset(dataset_path, dataset)
    shard = plan.shard(args.shard_index)
    artifact = run_shard(
        build_request(
            dataset_path=dataset_path,
            out_dir=args.dist_dir,
            shard=shard.to_dict(),
            nb=plan.nb,
            config=_config_dict(config),
            spec_name=args.gpu,
            n_gpus=args.n_gpus,
        )
    )
    print(f"shard     : {shard.index} of {shard.count} "
          f"({len(shard.iterations)} outer iterations "
          f"{list(shard.iterations)})")
    print(f"digest    : shard top_k_sha256 {artifact['top_k_sha256']}")
    print(f"artifact  : written to {args.dist_dir}/"
          f"shard-{shard.index}of{shard.count}.json")
    print(f"merge     : epi4tensor search --merge {args.dist_dir} "
          "(after all shards finish)")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.core.search import Epi4TensorSearch
    from repro.device.specs import gpu_by_name
    from repro.scoring.significance import permutation_pvalue

    if args.merge:
        return _cmd_merge(args)
    if args.shards is not None or args.shard_index is not None:
        return _cmd_sharded(args)

    tracer = None
    if args.trace_out:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    with _flag_values():
        dataset = _search_dataset(args)
        config = _search_config_from_args(args)
        search = Epi4TensorSearch(
            dataset, config, spec=gpu_by_name(args.gpu), n_gpus=args.n_gpus,
            tracer=tracer,
        )
    result = search.run(journal_path=args.journal)
    if args.trace_out or args.metrics_out or args.manifest_out:
        from repro.obs.exporters import export_run_artifacts
        from repro.obs.manifest import build_run_manifest

        manifest = (
            build_run_manifest(search, result, dataset=dataset)
            if args.manifest_out
            else None
        )
        written = export_run_artifacts(
            tracer=tracer,
            metrics=result.metrics,
            manifest=manifest,
            trace_out=args.trace_out,
            metrics_out=args.metrics_out,
            manifest_out=args.manifest_out,
        )
        for kind, path in sorted(written.items()):
            print(f"{kind:<9} : written to {path}")
    names = dataset.snp_names
    for rank, sol in enumerate(result.top_solutions, start=1):
        w, x, y, z = sol.quad
        print(f"#{rank}: ({w}, {x}, {y}, {z}) = "
              f"{names[w]}, {names[x]}, {names[y]}, {names[z]}  "
              f"score {sol.score:.6f}")
    print(f"device    : {result.n_devices}x {result.spec_name} "
          f"[{result.engine_name}]")
    print(f"useful    : {100 * result.block_scheme.useful_fraction:.1f}% of "
          f"{result.block_scheme.quads_processed} processed quads")
    print(f"wall time : {result.wall_seconds:.2f}s "
          f"({result.quads_per_second_scaled:.3e} quad-samples/s)")
    if "epi4_applyscore_compaction_ratio" in result.metrics.names():
        ratio = result.metrics.value("epi4_applyscore_compaction_ratio")
        print(f"applyScore: {100 * ratio:.1f}% of grid cells completed "
              "(mask-first compaction)")
    pruned = result.metrics.total("epi4_prune_quads_total")
    if pruned:
        survivors = result.metrics.total("epi4_applyscore_valid_total")
        frac = pruned / max(1.0, pruned + survivors)
        print(f"pruning   : {pruned:.0f} quads ({100 * frac:.1f}% of "
              f"mask-valid) bound-pruned before completion")
    if config.batch_rounds > 1 or config.n_streams > 1:
        t4 = int(result.metrics.total("epi4_gemm_launches_total", kernel="tensor4"))
        t4_problems = int(
            result.metrics.total("epi4_gemm_problems_total", kernel="tensor4")
        )
        overlap_s = result.metrics.total("epi4_stage_overlap_seconds_total")
        print(f"batching  : {t4_problems} tensor4 GEMMs in {t4} launches "
              f"(batch_rounds={config.batch_rounds}, "
              f"n_streams={config.n_streams}, "
              f"{overlap_s:.2f}s staged off the scoring thread)")
    if result.cache_stats is not None:
        cs = result.cache_stats
        print(f"cache     : {100 * cs.hit_rate:.1f}% hit rate "
              f"({cs.hits} hits / {cs.misses} misses, "
              f"{cs.evictions} evictions, "
              f"peak {cs.peak_bytes / 1e6:.1f} MB)")
    if args.journal:
        commits = result.metrics.total("epi4_journal_commits_total")
        replayed = result.metrics.total("epi4_journal_replayed_total")
        print(f"journal   : {commits:.0f} commit(s) appended, "
              f"{replayed:.0f} replayed from {args.journal}")
    if args.report:
        from repro.reporting import format_search_report

        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(format_search_report(result, dataset))
        print(f"report    : written to {args.report}")
    if args.permutations > 0:
        perm = permutation_pvalue(
            dataset,
            result.best_quad,
            n_permutations=args.permutations,
            seed=args.seed,
        )
        print(f"p-value   : {perm.p_value:.4f} "
              f"({args.permutations} label permutations)")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.device.specs import gpu_by_name
    from repro.perfmodel.figures import prediction_for_point

    pred = prediction_for_point(
        gpu_by_name(args.gpu), args.n_gpus, args.snps, args.samples, args.block_size
    )
    print(f"{args.n_gpus}x {args.gpu}, M={args.snps}, N={args.samples}, "
          f"B={args.block_size}")
    print(f"projected time   : {pred.seconds:.1f} s ({pred.seconds / 3600:.2f} h)")
    print(f"performance      : {pred.tera_quads_per_second_scaled:.2f} tera "
          "quads/s (scaled to sample size)")
    print(f"avg tensor TOPS  : {pred.avg_tops:.0f} "
          f"({100 * pred.efficiency:.1f}% of aggregate peak)")
    if pred.schedule is not None:
        print(f"speedup vs 1 GPU : {pred.speedup_vs_single:.2f}x")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.perfmodel import figures

    if args.which == "table1":
        for row in figures.table1_rows():
            print(
                f"{row['system']}: {row['gpu']} ({row['arch']}), "
                f"{row['tensor_cores']} tensor cores @ {row['boost_mhz']:.0f} MHz, "
                f"peak {row['peak_binary_tops']:.0f} binary TOPS, "
                f"{row['memory_gb']} GB @ {row['bandwidth_gbps']} GB/s"
            )
    elif args.which == "fig2":
        print("system gpu          M     N       eng  B  S  tera-quads/s  avgTOPS")
        for r in figures.fig2_grid():
            print(
                f"{r.system:6s} {r.gpu:12s} {r.n_snps:5d} {r.n_samples:7d} "
                f"{r.engine:4s} {r.block_size:2d} {r.n_streams}  "
                f"{r.tera_quads_per_second:10.2f}  {r.avg_tops:7.0f}"
            )
    elif args.which == "fig3":
        print("gpus  M     N       tera-quads/s  speedup  avgTOPS  hours")
        for r in figures.fig3_grid():
            print(
                f"{r.n_gpus:4d} {r.n_snps:5d} {r.n_samples:7d} "
                f"{r.tera_quads_per_second:12.1f}  {r.speedup:6.2f}  "
                f"{r.avg_tops:7.0f}  {r.hours:6.2f}"
            )
    elif args.which == "table2":
        for r in figures.table2_rows():
            print(
                f"{r.approach:24s} {r.hardware:32s} {r.n_snps:5d} x {r.n_samples:6d}"
                f"  {r.tera_quads_per_second:8.3f}  [{r.source}]"
            )
    elif args.which == "ratios":
        for r in figures.unique_ratio_rows():
            print(f"M={r.n_snps:5d} B={r.block_size:2d}: {r.percent_unique:.1f}% unique")
    elif args.which == "all":
        if not args.csv:
            raise SystemExit("figures all requires --csv DIR")
    if args.csv:
        from repro.perfmodel.export import export_all

        for name, path in export_all(args.csv).items():
            print(f"wrote {name}: {path}")
    return 0


def _cmd_qc(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.datasets import save_dataset
    from repro.datasets.qc import apply_qc

    class _Shim:
        input = args.input
        snps = samples = seed = 0

    dataset = _load_or_generate(_Shim)
    filtered, report = apply_qc(
        dataset, min_maf=args.min_maf, hwe_alpha=args.hwe_alpha
    )
    print(report.summary())
    print(f"MAF range  : {report.maf.min():.3f} .. {report.maf.max():.3f}")
    print(f"HWE p min  : {report.hwe_pvalues.min():.2e}")
    worst = np.argsort(report.hwe_pvalues)[:5]
    for idx in worst:
        print(
            f"  {dataset.snp_names[idx]:<12s} maf={report.maf[idx]:.3f} "
            f"hwe_p={report.hwe_pvalues[idx]:.2e}"
        )
    if args.output:
        save_dataset(args.output, filtered)
        print(f"filtered dataset written to {args.output}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import (
        generate_epistatic_dataset,
        generate_random_dataset,
        save_dataset,
    )

    if args.plant_interaction:
        dataset, quad = generate_epistatic_dataset(
            args.snps, args.samples, seed=args.seed
        )
        print(f"planted interaction at SNPs {quad}")
    else:
        dataset = generate_random_dataset(args.snps, args.samples, seed=args.seed)
    save_dataset(args.output, dataset)
    print(f"wrote {dataset} to {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="epi4tensor",
        description="Tensor-accelerated fourth-order epistasis detection "
        "(ICPP 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    search_parser = _add_search(sub)
    _add_predict(sub)
    _add_figures(sub)
    _add_qc(sub)
    _add_generate(sub)
    args = parser.parse_args(argv)
    if args.command == "search" and args.permutations < 0:
        search_parser.error(
            f"argument --permutations: must be >= 0, got {args.permutations}"
        )
    handlers = {
        "search": _cmd_search,
        "predict": _cmd_predict,
        "figures": _cmd_figures,
        "qc": _cmd_qc,
        "generate": _cmd_generate,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except _UsageError as exc:
        sub.choices[args.command].error(str(exc))
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so
        # the interpreter's exit-time flush cannot raise again, and exit
        # with the status Python itself uses for EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
