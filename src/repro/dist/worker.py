"""Shard worker: run one shard of a search in one OS process.

The worker is a plain top-level function driven by a JSON-safe request
dict, so the coordinator can launch it through a ``spawn``-context
:class:`multiprocessing.Process` (no pickled closures, no inherited
state) and a cluster operator can run it per node via
``epi4tensor search --shards N --shard-index i``.

Each shard writes, into the shared output directory:

- ``shard-{i}of{n}.journal`` — the PR-6 crash-safe WAL, with a
  shard-qualified path *and* a domain-qualified fingerprint plus shard
  header metadata, so concurrent shards can never collide on a resume
  file and a journal can never be replayed into the wrong shard;
- ``shard-{i}of{n}.json`` — the shard artifact: identity, domain,
  shard-local top-k (bit-exact ``[score, packed]`` pairs), metrics
  snapshot and measured schedule, everything the merge needs;
- ``shard-{i}of{n}-manifest.json`` — a per-shard run manifest.

The artifact is written atomically (write → fsync → rename), so the
coordinator never observes a half-written artifact from a worker killed
mid-export — it sees either no artifact (shard incomplete, respawn and
journal-resume) or a complete one.
"""

from __future__ import annotations

import json
import os
import signal

from repro.core.solution import Solution
from repro.utils.fs import write_atomic

#: Chaos hook: ``"<shard-index>:<after-commits>"`` SIGKILLs that shard's
#: first worker process mid-commit (a torn frame is flushed first), once
#: — a marker file makes the respawned worker run clean.  Test-only.
CHAOS_KILL_ENV = "EPI4TENSOR_DIST_KILL"


def shard_artifact_name(index: int, count: int) -> str:
    return f"shard-{index}of{count}.json"


def shard_journal_name(index: int, count: int) -> str:
    return f"shard-{index}of{count}.journal"


def shard_manifest_name(index: int, count: int) -> str:
    return f"shard-{index}of{count}-manifest.json"


def build_request(
    *,
    dataset_path: str,
    out_dir: str,
    shard: dict,
    nb: int,
    config: dict | None = None,
    spec_name: str = "A100 PCIe",
    n_gpus: int = 1,
    trace: bool = False,
) -> dict:
    """Assemble a worker request (everything JSON-safe)."""
    return {
        "dataset_path": os.fspath(dataset_path),
        "out_dir": os.fspath(out_dir),
        "shard": dict(shard),
        "nb": int(nb),
        "config": dict(config or {}),
        "spec_name": spec_name,
        "n_gpus": int(n_gpus),
        "trace": bool(trace),
    }


def run_shard(request: dict) -> dict:
    """Execute one shard per ``request`` and write its artifacts.

    Returns the shard artifact dict (also written to disk).  Safe to
    call in-process (tests, ``--shard-index`` CLI mode) or as a spawned
    process target.
    """
    from repro.core.search import Epi4TensorSearch, SearchConfig
    from repro.datasets import load_dataset
    from repro.device.specs import gpu_by_name
    from repro.obs.manifest import (
        build_run_manifest,
        encoded_digest,
        solutions_digest,
    )
    from repro.perfmodel.workload import shard_tensor_ops

    shard = request["shard"]
    index = int(shard["index"])
    count = int(shard["count"])
    iterations = [int(wi) for wi in shard["iterations"]]
    out_dir = request["out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    dataset = load_dataset(request["dataset_path"])
    # _config_dict stringifies non-finite floats for JSON; undo that.
    config_kwargs = {
        key: float(value) if value in ("inf", "-inf", "nan") else value
        for key, value in request["config"].items()
    }
    config = SearchConfig(**config_kwargs)
    spec = gpu_by_name(request["spec_name"])
    tracer = None
    if request.get("trace"):
        from repro.obs.trace import Tracer

        tracer = Tracer()
    search = Epi4TensorSearch(
        dataset,
        config,
        spec=spec,
        n_gpus=int(request.get("n_gpus", 1)),
        tracer=tracer,
    )
    if search.scheme.nb != int(request["nb"]):
        raise ValueError(
            f"shard {index}: dataset yields nb={search.scheme.nb}, plan "
            f"was built for nb={request['nb']}"
        )
    journal_path = os.path.join(out_dir, shard_journal_name(index, count))
    restore_chaos = _arm_chaos_kill(index, out_dir)
    restore_meta = _install_journal_meta(index, count)
    try:
        span = (
            tracer.span("shard", index=index, count=count)
            if tracer is not None
            else None
        )
        if span is not None:
            with span:
                result = search.run(
                    journal_path=journal_path, outer_iterations=iterations
                )
        else:
            result = search.run(
                journal_path=journal_path, outer_iterations=iterations
            )
    finally:
        # The patches are process-wide; undo them so in-process callers
        # (inline coordinator, tests) leave the journal class pristine.
        restore_meta()
        restore_chaos()

    # Shard-mode-only series: plain runs keep their golden metric set.
    registry = result.metrics
    registry.set_gauge("epi4_shard_index", float(index))
    registry.set_gauge("epi4_shard_count", float(count))
    registry.inc("epi4_shard_iterations_total", float(len(iterations)))

    model = shard_tensor_ops(
        iterations, search.scheme.nb, config.block_size, result.n_samples
    )
    executed_now = sum(len(worker) for worker in result.executed_assignment)
    raw_ops = registry.sum_by("epi4_tensor_ops_total", "kernel", form="raw")
    artifact = {
        "schema_version": 1,
        "kind": "epi4tensor-shard",
        "shard": {
            "index": index,
            "count": count,
            "iterations": iterations,
        },
        "nb": search.scheme.nb,
        "identity": shard_identity(search),
        "fingerprint": search.fingerprint(),
        "shard_fingerprint": search.fingerprint(iterations),
        "dataset": {"encoded_sha256": encoded_digest(search.encoded)},
        "top_k": config.top_k,
        "solutions": [s.to_pair() for s in result.top_solutions],
        "top_k_sha256": solutions_digest(result.top_solutions),
        "executed_iterations": executed_now,
        "replayed_iterations": int(
            registry.total("epi4_journal_replayed_total")
        ),
        "wall_seconds": result.wall_seconds,
        "schedule": {
            "assignment": result.schedule.assignment,
            "device_loads": result.schedule.device_loads,
            "makespan": result.schedule.makespan,
            "total_cost": result.schedule.total_cost,
        },
        "model": model,
        "counters": {
            "tensor_ops_raw": int(sum(raw_ops.values())),
            "tensor_ops_by_kernel": {k: int(v) for k, v in raw_ops.items()},
        },
        "metrics": registry.snapshot(),
    }
    write_atomic(
        os.path.join(out_dir, shard_artifact_name(index, count)),
        json.dumps(artifact, sort_keys=True, indent=1) + "\n",
    )
    manifest = build_run_manifest(
        search,
        result,
        dataset=dataset,
        extra={"shard_index": index, "shard_count": count},
    )
    write_atomic(
        os.path.join(out_dir, shard_manifest_name(index, count)),
        manifest.to_json(),
    )
    if tracer is not None:
        from repro.obs.exporters import export_run_artifacts

        export_run_artifacts(
            tracer=tracer,
            metrics=None,
            manifest=None,
            trace_out=os.path.join(out_dir, f"shard-{index}of{count}-trace.jsonl"),
        )
    return artifact


def shard_identity(search) -> dict:
    """Field-wise identity of a search configuration — the structured
    counterpart of the fingerprint string, so a merge-time mismatch can
    name the offending clause instead of diffing opaque strings."""
    return {
        "n_snps": search.scheme.n_snps,
        "n_real_snps": search.scheme.n_real_snps,
        "n_controls": search.encoded.n_controls,
        "n_cases": search.encoded.n_cases,
        "block_size": search.config.block_size,
        "engine": search.cluster.gpus[0].engine.name,
        "top_k": search.config.top_k,
        "n_gpus": search.cluster.n_gpus,
    }


def solutions_from_pairs(pairs) -> list[Solution]:
    """Decode a shard artifact's ``[[score, packed], ...]`` list."""
    return [Solution.from_pair(pair) for pair in pairs]


def _install_journal_meta(index: int, count: int):
    """Route this worker's journal opens through shard header metadata.

    Every journal the shard's search opens records (and on resume,
    verifies) ``{"shard_index": i, "shard_count": n}`` — a second line
    of defence behind the domain-qualified fingerprint.  Returns a
    restore callable that undoes the class patch.
    """
    from repro.core.journal import RoundJournal

    original = RoundJournal.open.__func__
    meta = {"shard_index": index, "shard_count": count}

    def open_with_meta(cls, path, fingerprint, compact_after=4096, **kwargs):
        kwargs.setdefault("meta", meta)
        return original(cls, path, fingerprint, compact_after, **kwargs)

    RoundJournal.open = classmethod(open_with_meta)

    def restore() -> None:
        RoundJournal.open = classmethod(original)

    return restore


def _arm_chaos_kill(index: int, out_dir: str):
    """Install the test-only SIGKILL-mid-commit hook when armed via
    :data:`CHAOS_KILL_ENV` for this shard index.

    After ``after`` durable commits, the next commit flushes a torn
    partial frame and SIGKILLs the process — the canonical mid-commit
    crash.  A marker file (written durably *before* the kill) makes the
    respawned worker run clean, so the chaos fires exactly once.
    Returns a restore callable (no-op when the hook was not armed).
    """
    spec = os.environ.get(CHAOS_KILL_ENV)
    armed = bool(spec)
    if armed:
        target, _, after_text = spec.partition(":")
        if int(target) != index:
            armed = False
        else:
            marker = os.path.join(out_dir, f"shard-{index}.killed")
            if os.path.exists(marker):
                armed = False
    if not armed:
        return lambda: None
    after = int(after_text or "1")
    from repro.core import journal as journal_mod

    original = journal_mod.RoundJournal._append_locked
    state = {"commits": 0}

    def chaotic_append(self, record):
        if record.get("type") == "commit":
            state["commits"] += 1
            if state["commits"] > after:
                with open(marker, "w", encoding="utf-8") as fh:
                    fh.write(spec + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                # A torn frame: valid preamble bytes, truncated payload.
                self._fh.write(b"EJ\x40\x00\x00\x00")
                self._fh.flush()
                os.fsync(self._fh.fileno())
                os.kill(os.getpid(), signal.SIGKILL)
        original(self, record)

    journal_mod.RoundJournal._append_locked = chaotic_append

    def restore() -> None:
        journal_mod.RoundJournal._append_locked = original

    return restore
