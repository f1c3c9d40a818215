"""Coordinator: launch shard workers, recover the dead, merge the rest.

Workers are separate OS processes (``spawn`` context — no inherited
locks or interpreter state, the same start method a real cluster
launcher gives you).  The coordinator tracks a bounded pool of worker
slots over the shard queue, and treats a worker death (non-zero exit,
SIGKILL, lost process) as a *recoverable* event: the shard is requeued
and a fresh worker resumes it **through its journal** — the PR-6 WAL
replays every durable commit, so exactly the uncommitted iterations are
re-executed and the shard's result is bit-identical to an undisturbed
run.  Only after ``max_restarts`` consecutive failures of the same
shard does the run abort.

``inline=True`` executes the shards sequentially in-process — same
planner, same worker function, same artifacts, same merge — for fast
deterministic tests and debugging without process machinery.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.dist.merge import MergedRun, merge_shards
from repro.dist.plan import ShardPlan, plan_shards
from repro.dist.worker import build_request, run_shard, shard_artifact_name
from repro.utils.fs import write_atomic

#: Coordinator artifact names in the output directory.
MERGED_MANIFEST_NAME = "merged-manifest.json"
MERGED_METRICS_NAME = "merged-metrics.prom"
DATASET_NAME = "dataset.npz"


class ShardWorkerError(RuntimeError):
    """A shard worker kept dying past its restart budget."""


def run_sharded(
    dataset,
    config=None,
    *,
    n_shards: int,
    out_dir: str | os.PathLike,
    spec_name: str = "A100 PCIe",
    n_gpus: int = 1,
    max_procs: int | None = None,
    max_restarts: int = 2,
    inline: bool = False,
    trace: bool = False,
    plan: ShardPlan | None = None,
) -> MergedRun:
    """Execute ``dataset``'s search as ``n_shards`` communication-free
    shards and return the deterministically merged result.

    Args:
        dataset: a raw :class:`~repro.datasets.dataset.Dataset` (workers
            re-encode it identically from the ``.npz`` staged in
            ``out_dir``).
        config: :class:`~repro.core.search.SearchConfig` for every shard
            (defaults apply when ``None``).
        n_shards: shard count, in ``[1, nb]``.
        out_dir: shared output directory — journals, shard artifacts,
            per-shard manifests, and the merged manifest/metrics land
            here.
        spec_name / n_gpus: device model and per-worker GPU count.
        max_procs: concurrent worker processes (default: all shards).
        max_restarts: times one shard may be respawned after its worker
            dies before the run aborts.
        inline: run the shard workers sequentially in this process.
        trace: have each worker record and export its span tree.
        plan: the :func:`plan_run` result for these arguments, when the
            caller already built it (planned here otherwise).

    Returns:
        :class:`~repro.dist.merge.MergedRun` — its ``top_k_sha256`` is
        bit-identical to the unsharded run's.
    """
    from repro.core.search import SearchConfig
    from repro.datasets import save_dataset
    from repro.obs.manifest import _config_dict

    config = config or SearchConfig()
    out_dir = os.fspath(out_dir)
    if plan is None:
        plan = plan_run(
            dataset, config, n_shards=n_shards, spec_name=spec_name,
            n_gpus=n_gpus,
        )
    nb = plan.nb

    os.makedirs(out_dir, exist_ok=True)
    dataset_path = os.path.join(out_dir, DATASET_NAME)
    save_dataset(dataset_path, dataset)

    config_dict = _config_dict(config)
    requests = [
        build_request(
            dataset_path=dataset_path,
            out_dir=out_dir,
            shard=shard.to_dict(),
            nb=nb,
            config=config_dict,
            spec_name=spec_name,
            n_gpus=n_gpus,
            trace=trace,
        )
        for shard in plan.shards
    ]

    if inline:
        for request in requests:
            run_shard(request)
    else:
        _drive_workers(requests, out_dir, max_procs, max_restarts)

    merged = merge_shards(out_dir)
    _export_merged(merged, out_dir)
    return merged


def plan_run(
    dataset,
    config,
    *,
    n_shards: int,
    spec_name: str = "A100 PCIe",
    n_gpus: int = 1,
) -> ShardPlan:
    """The shard plan of ``dataset``'s search, from one probe construction.

    The probe (built, never run) pins the block scheme the workers must
    agree on, and raises on config/dataset errors here rather than in N
    child processes.  It writes nothing, so a caller can validate a run
    before creating its output directory.
    """
    from repro.core.search import Epi4TensorSearch
    from repro.device.specs import gpu_by_name

    probe = Epi4TensorSearch(
        dataset, config, spec=gpu_by_name(spec_name), n_gpus=n_gpus
    )
    return plan_shards(
        probe.scheme.nb,
        n_shards,
        block_size=config.block_size,
        n_samples=probe.encoded.n_samples,
    )


def _drive_workers(
    requests: list[dict],
    out_dir: str,
    max_procs: int | None,
    max_restarts: int,
) -> None:
    """Slot-limited spawn pool with journal-resume restarts.

    A worker is *complete* only when its shard artifact exists (written
    atomically as the worker's last act) — exit code 0 without an
    artifact is treated as a failure too, so a worker dying between
    search and export is also recovered.
    """
    ctx = multiprocessing.get_context("spawn")
    slots = max(1, min(max_procs or len(requests), len(requests)))
    pending: list[dict] = list(requests)
    restarts: dict[int, int] = {}
    running: list[tuple[multiprocessing.Process, dict]] = []

    def artifact_done(request: dict) -> bool:
        shard = request["shard"]
        return os.path.exists(
            os.path.join(
                out_dir,
                shard_artifact_name(shard["index"], shard["count"]),
            )
        )

    while pending or running:
        while pending and len(running) < slots:
            request = pending.pop(0)
            process = ctx.Process(target=run_shard, args=(request,))
            process.start()
            running.append((process, request))
        # Reap any finished worker (bounded wait keeps the loop live).
        still: list[tuple[multiprocessing.Process, dict]] = []
        reaped = False
        for process, request in running:
            process.join(timeout=0.05)
            if process.is_alive():
                still.append((process, request))
                continue
            reaped = True
            index = request["shard"]["index"]
            if process.exitcode == 0 and artifact_done(request):
                continue
            used = restarts.get(index, 0)
            if used >= max_restarts:
                for other, _ in still:
                    other.terminate()
                raise ShardWorkerError(
                    f"shard {index} worker died (exit {process.exitcode}) "
                    f"{used + 1} time(s); restart budget ({max_restarts}) "
                    "exhausted"
                )
            restarts[index] = used + 1
            # Reassign: a fresh worker resumes through the shard journal,
            # re-executing exactly the uncommitted iterations.
            pending.append(request)
        running = still
        if not reaped and running:
            running[0][0].join(timeout=0.2)


def _export_merged(merged: MergedRun, out_dir: str) -> None:
    write_atomic(
        os.path.join(out_dir, MERGED_MANIFEST_NAME), merged.manifest.to_json()
    )
    write_atomic(
        os.path.join(out_dir, MERGED_METRICS_NAME),
        merged.metrics.to_prometheus(),
    )
