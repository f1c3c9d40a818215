"""Plain-text report generation for search results.

Produces the run report a user would archive next to their results: the
ranked solutions, execution/phase profile, device work counters, memory
footprint, and (optionally) where the run would sit on the paper's real
hardware according to the calibrated model.  Used by the CLI's
``--report`` flag and directly callable from the API.
"""

from __future__ import annotations

from repro.core.search import SearchResult
from repro.datasets.dataset import Dataset


def _rule(char: str = "-", width: int = 72) -> str:
    return char * width


def format_search_report(
    result: SearchResult,
    dataset: Dataset | None = None,
    *,
    include_model_projection: bool = True,
) -> str:
    """Render a :class:`~repro.core.search.SearchResult` as a text report.

    Args:
        result: the finished search.
        dataset: if given, SNP names are resolved in the solution table.
        include_model_projection: append the calibrated model's projection
            of the same workload on the paper's hardware.

    Returns:
        The report as a single string (write it wherever you like).
    """
    scheme = result.block_scheme
    lines: list[str] = []
    add = lines.append

    add(_rule("="))
    add("Epi4Tensor search report")
    add(_rule("="))
    add(
        f"dataset      : M={scheme.n_real_snps} SNPs "
        f"(padded to {scheme.n_snps}), N={result.n_samples} samples"
    )
    add(
        f"device       : {result.n_devices}x {result.spec_name} "
        f"[{result.engine_name}]"
    )
    add(
        f"block scheme : B={scheme.block_size}, {scheme.n_rounds} rounds, "
        f"{scheme.quads_processed:,} positional quads "
        f"({100 * scheme.useful_fraction:.1f}% unique)"
    )
    add("")

    add("ranked solutions")
    add(_rule())
    names = dataset.snp_names if dataset is not None else None
    for rank, sol in enumerate(result.top_solutions, start=1):
        quad = sol.quad
        label = (
            " = " + ", ".join(names[i] for i in quad) if names is not None else ""
        )
        add(f"  #{rank:<3d} {quad}{label}   score {sol.score:.6f}")
    add("")

    add("execution profile (simulator wall clock)")
    add(_rule())
    total_phase = sum(result.phase_seconds.values()) or 1.0
    for phase, seconds in sorted(
        result.phase_seconds.items(), key=lambda kv: -kv[1]
    ):
        add(
            f"  {phase:<10s} {seconds:9.3f}s  "
            f"{100 * seconds / total_phase:5.1f}%"
        )
    add(f"  {'total':<10s} {result.wall_seconds:9.3f}s")
    add("")

    m = result.metrics
    ops = m.sum_by("epi4_tensor_ops_total", "form")
    launches = m.sum_by("epi4_kernel_launches_total", "kernel")
    add("device work counters (all devices)")
    add(_rule())
    add(f"  tensor ops (raw)    : {ops.get('raw', 0.0):.3e}")
    add(f"  tensor ops (padded) : {ops.get('padded', 0.0):.3e}")
    add(f"  combine bit ops     : {m.total('epi4_combine_bit_ops_total'):.3e}")
    add(f"  score cells         : {m.total('epi4_score_cells_total'):.3e}")
    add(f"  transferred bytes   : {int(m.total('epi4_transfer_bytes_total')):,}")
    kernel_counts = ", ".join(
        f"{name}={count:.0f}" for name, count in sorted(launches.items())
    )
    add(f"  kernel launches     : {kernel_counts}")
    add("")

    if result.cache_stats is not None:
        cs = result.cache_stats
        cap = (
            "unbounded"
            if cs.capacity_bytes == float("inf")
            else f"{cs.capacity_bytes / 1e6:.1f} MB"
        )
        add("round-operand cache")
        add(_rule())
        add(
            f"  lookups    : {cs.hits + cs.misses} "
            f"({cs.hits} hits / {cs.misses} misses, "
            f"{100 * cs.hit_rate:.1f}% hit rate)"
        )
        add(
            f"  evictions  : {cs.evictions}   "
            f"resident {cs.current_bytes / 1e6:.1f} MB, "
            f"peak {cs.peak_bytes / 1e6:.1f} MB (budget {cap})"
        )
        add("")

    if "epi4_applyscore_positions_total" in m.names():
        positions = m.total("epi4_applyscore_positions_total")
        valid = m.total("epi4_applyscore_valid_total")
        add("applyScore (mask-first compaction)")
        add(_rule())
        add(
            f"  grid positions      : {int(positions):,} "
            f"({int(valid):,} valid, "
            f"{100 * valid / positions if positions else 0.0:.1f}% completed "
            "and scored)"
        )
        full3_req = m.total("epi4_operand_requests_total", kind="full3")
        if full3_req:
            full3_exec = m.total("epi4_operand_executed_total", kind="full3")
            full3_hits = m.total("epi4_operand_cache_served_total", kind="full3")
            add(
                f"  full3 tables        : {int(full3_req)} requests = "
                f"{int(full3_exec)} completed + {int(full3_hits)} reused"
            )
        pruned = m.total("epi4_prune_quads_total")
        if pruned:
            frac = pruned / max(1.0, pruned + valid)
            add(
                f"  bound pruning       : {int(pruned):,} quads "
                f"({100 * frac:.1f}% of mask-valid) dropped before "
                "completion (bit-identical top-k)"
            )
        add("")

    add("observability (per-device attribution)")
    add(_rule())
    by_device = result.phase_seconds_by_device
    devices = sorted({d for per in by_device.values() for d in per})
    add("  phase seconds by device (recorded at the launch site;")
    add("  immune to threaded out-of-order completion):")
    for phase in sorted(by_device):
        cells = "  ".join(
            f"dev {d}: {by_device[phase].get(d, 0.0):8.3f}s"
            for d in devices
            if d in by_device[phase]
        )
        add(f"    {phase:<10s} {cells}")
    rounds = m.sum_by("epi4_rounds_total", "device")
    if rounds:
        add(
            "  rounds by device    : "
            + ", ".join(
                f"dev {d}: {int(n)}" for d, n in sorted(rounds.items())
            )
        )
    requests = m.total("epi4_operand_requests_total")
    if requests:
        executed = m.total("epi4_operand_executed_total")
        served = m.total("epi4_operand_cache_served_total")
        add(
            f"  operand requests    : {int(requests)} = "
            f"{int(executed)} executed + {int(served)} cache-served"
        )
    add("")

    if "epi4_journal_commits_total" in m.names():
        add("round journal (crash-safe exactly-once resume)")
        add(_rule())
        add(
            f"  commits appended    : "
            f"{int(m.total('epi4_journal_commits_total'))}"
        )
        add(
            f"  commits replayed    : "
            f"{int(m.total('epi4_journal_replayed_total'))}"
        )
        torn = int(m.total("epi4_journal_torn_bytes"))
        if torn:
            add(f"  torn bytes dropped  : {torn}")
        compactions = int(m.total("epi4_journal_compactions_total"))
        if compactions:
            add(f"  compactions         : {compactions}")
        add("")

    if include_model_projection:
        add("calibrated model projection (same workload on real hardware)")
        add(_rule())
        from repro.device.specs import A100_PCIE, A100_SXM4, TITAN_RTX
        from repro.perfmodel.model import predict_search

        block = 32  # paper-standard block on real tensor cores
        padded = max(
            ((scheme.n_real_snps + block - 1) // block) * block, 4 * block
        )
        for spec in (TITAN_RTX, A100_PCIE, A100_SXM4):
            pred = predict_search(
                spec,
                padded,
                result.n_samples,
                block,
                n_real_snps=scheme.n_real_snps,
            )
            add(
                f"  {spec.name:<10s} {pred.seconds:12.4f}s  "
                f"({pred.tera_quads_per_second_scaled:8.3f} tera quads/s, "
                f"{pred.avg_tops:6.0f} TOPS)"
            )
        add("")
    return "\n".join(lines)


def format_merged_report(merged) -> str:
    """Render a :class:`~repro.dist.merge.MergedRun` as a text report.

    Deterministic: derived only from shard identity, domains and merged
    results — two runs of the same plan produce identical reports.
    """
    lines: list[str] = []
    add = lines.append

    add(_rule("="))
    add("Epi4Tensor sharded search report")
    add(_rule("="))
    identity = merged.shards[0]["identity"]
    add(
        f"dataset      : M={identity['n_real_snps']} SNPs "
        f"(padded to {identity['n_snps']}), "
        f"{identity['n_controls']} controls / {identity['n_cases']} cases"
    )
    add(
        f"shards       : {merged.n_shards} x {identity['n_gpus']} device(s) "
        f"[{identity['engine']}]"
    )
    add(
        f"domain       : {merged.nb} outer iterations, "
        f"B={identity['block_size']}, score k2"
    )
    add("")

    add("merged ranked solutions (bit-identical to the unsharded run)")
    add(_rule())
    for rank, sol in enumerate(merged.solutions, start=1):
        add(f"  #{rank:<3d} {sol.quad}   score {sol.score:.6f}")
    add(f"  top_k_sha256 : {merged.top_k_sha256}")
    add("")

    add("shard domains and work")
    add(_rule())
    total_ops = sum(
        a.get("model", {}).get("tensor_ops", 0) for a in merged.shards
    )
    for artifact in merged.shards:
        shard = artifact["shard"]
        ops = artifact.get("model", {}).get("tensor_ops", 0)
        share = 100.0 * ops / total_ops if total_ops else 0.0
        replayed = artifact.get("replayed_iterations", 0)
        resumed = f", {replayed} replayed" if replayed else ""
        add(
            f"  shard {shard['index']:<3d} W={list(shard['iterations'])}  "
            f"{ops:.3e} tensor ops ({share:5.1f}%)"
            f"  [{artifact['executed_iterations']} executed{resumed}]"
        )
    add("")

    m = merged.metrics
    requests = m.total("epi4_operand_requests_total")
    if requests:
        executed = m.total("epi4_operand_executed_total")
        served = m.total("epi4_operand_cache_served_total")
        add("merged observability (counters summed across shards)")
        add(_rule())
        add(
            f"  operand requests    : {int(requests)} = "
            f"{int(executed)} executed + {int(served)} cache-served"
        )
        add(
            f"  shard iterations    : "
            f"{int(m.total('epi4_shard_iterations_total'))}"
        )
        # Tolerant of artifacts lacking the pruning series (older
        # workers, prune-off shards): total() is 0 for absent series.
        pruned = m.total("epi4_prune_quads_total")
        if pruned:
            add(f"  bound pruning       : {int(pruned):,} quads pruned")
        add("")
    return "\n".join(lines)
