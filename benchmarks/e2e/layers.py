"""Outside-in layer timing for the end-to-end benchmark.

The benchmark edits no ``src/`` file.  For its one traced run it swaps
timing wrappers into the public functions of each layer and restores the
originals afterwards.  A wrapper is installed where the *caller* looks the
name up: ``repro.core.search.score_round`` rather than
``repro.core.apply_score.score_round``, because ``search`` bound the name
at import time with ``from ... import``.  Methods are patched on their
class, so every instance sees the wrapper.

Each wrapper opens a span on a thread-local stack.  A span's *self* time
is its duration minus the durations of the spans it directly encloses on
the same thread, so the self times of one thread add up to the time that
thread spent inside any wrapped layer.  The main thread's total is what
``search.unattributed_s`` subtracts from the wall time.

Sharded runs execute their layers in spawned worker processes.  During
the traced run the coordinator's worker target is swapped for
:func:`traced_run_shard`, which installs the same wrappers inside the
worker and leaves its span totals next to the shard artifact.

Only the standard library is imported at module level: the set-up probe
imports this module before it times ``import repro.core.search``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: ``(layer, module, class or "", attribute)`` for every wrapped call.
#: Two attributes may share a layer (the batched and unbatched GEMMs).
WRAPPED: tuple[tuple[str, str, str, str], ...] = (
    ("tensor.gemm4", "repro.device.virtual_gpu", "VirtualGPU", "launch_tensor4"),
    ("tensor.gemm4", "repro.device.virtual_gpu", "VirtualGPU", "launch_tensor4_batch"),
    ("tensor.gemm3", "repro.device.virtual_gpu", "VirtualGPU", "launch_tensor3"),
    ("tensor.gemm3", "repro.device.virtual_gpu", "VirtualGPU", "launch_tensor3_batch"),
    ("device.combine", "repro.device.virtual_gpu", "VirtualGPU", "launch_combine"),
    ("bounds.quad", "repro.scoring.bounds", "K2BoundKernel", "quad_bounds"),
    ("complete.quad", "repro.core.apply_score", "", "complete_quad"),
    ("complete.full3", "repro.core.apply_score", "", "complete_threeway"),
    ("k2.score", "repro.scoring.k2", "StagedK2Kernel", "score_flat"),
    ("apply_score", "repro.core.search", "", "score_round"),
    ("reduce.add_round", "repro.core.reduction", "TopKReducer", "add_round"),
    ("reduce.kth", "repro.core.reduction", "TopKReducer", "kth_score"),
    ("cache.lookup", "repro.core.operand_cache", "OperandCache", "get_or_compute"),
    ("journal.commit", "repro.core.journal", "RoundJournal", "commit"),
    ("datasets.encode", "repro.core.search", "", "encode_dataset"),
    ("pairwise.tables", "repro.core.search", "", "pairw_pop"),
    ("dist.stage_dataset", "repro.datasets", "", "save_dataset"),
    ("dist.merge", "repro.dist.coordinator", "", "merge_shards"),
)

#: Layer of the stage tasks the operand stager runs on its own thread
#: (``HostStream.submit`` is wrapped so each submitted task is a span).
STAGE_LAYER = "stage.task"


def shard_layers_name(index: int, count: int) -> str:
    """File a traced shard worker leaves its span totals in."""
    return f"bench-layers-{index}of{count}.json"


class LayerTracer:
    """Per-layer self time, total time and call counts over wrapped calls.

    Args:
        clock: monotonic seconds source (tests pass a scripted clock).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Summed duration of the main thread's outermost spans, which is
        #: also the sum of the main thread's self times.
        self.main_root_s = 0.0

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as one span of ``layer``."""

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            children = [0.0]
            stack.append(children)
            start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self._clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                root_on_main = not stack and threading.get_ident() == self._main
                with self._lock:
                    self.self_s[layer] += duration - children[0]
                    self.total_s[layer] += duration
                    self.calls[layer] += 1
                    if root_on_main:
                        self.main_root_s += duration

        return timed

    @contextmanager
    def installed(self, shards: bool = False) -> Iterator["LayerTracer"]:
        """Swap the wrappers in for the duration of the block.

        With ``shards`` the sharded coordinator's worker target becomes
        :func:`traced_run_shard`.  Every original is restored on exit,
        also when the block raises.
        """
        from repro.device.streams import HostStream

        saved: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, replacement: Any) -> None:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        try:
            for layer, module, cls, attr in WRAPPED:
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                patch(owner, attr, self.wrap(layer, owner.__dict__[attr]))

            submit = HostStream.__dict__["submit"]

            def traced_submit(stream, fn, *args, **kwargs):
                return submit(stream, self.wrap(STAGE_LAYER, fn), *args, **kwargs)

            patch(HostStream, "submit", traced_submit)
            if shards:
                patch(
                    importlib.import_module("repro.dist.coordinator"),
                    "run_shard",
                    traced_run_shard,
                )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, Any]:
        """JSON-safe totals (what a traced shard worker writes out)."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "main_root_s": self.main_root_s,
            }

    def absorb(self, summary: dict[str, Any]) -> None:
        """Add a worker process's totals.  Its main thread is not this
        process's main thread, so ``main_root_s`` is left alone."""
        with self._lock:
            for layer, seconds in summary["self_s"].items():
                self.self_s[layer] += seconds
            for layer, seconds in summary["total_s"].items():
                self.total_s[layer] += seconds
            for layer, count in summary["calls"].items():
                self.calls[layer] += count

    def fired(self) -> list[str]:
        """Layers with at least one recorded call."""
        return sorted(layer for layer, count in self.calls.items() if count)


def traced_run_shard(request: dict) -> dict:
    """Shard worker target used during the traced run: the stock worker
    under a :class:`LayerTracer`, which writes its totals into the shard
    directory for the parent to absorb after the merge."""
    from repro.dist.worker import run_shard

    tracer = LayerTracer()
    with tracer.installed():
        artifact = run_shard(request)
    shard = request["shard"]
    path = os.path.join(
        request["out_dir"], shard_layers_name(shard["index"], shard["count"])
    )
    with open(path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return artifact


def layer_metrics(
    tracer: LayerTracer,
    counts: dict[str, float],
    *,
    wall_s: float,
    run_attributed_s: float,
    untraced_wall_s: float,
    shard_walls: list[float],
) -> dict[str, float]:
    """The per-layer metrics of one traced run, by ``BENCHMARK.json`` name.

    Args:
        tracer: span totals of the traced run (shard workers absorbed).
        counts: counters the program itself exported (see
            ``workloads.run_counts``).
        wall_s: wall seconds of the traced run.
        run_attributed_s: main-thread span seconds inside that wall.
        untraced_wall_s: median wall of the untraced repeats.
        shard_walls: each shard's own ``wall_seconds`` (empty unsharded).
    """
    s, calls = tracer.self_s, tracer.calls

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    gemm_s = s["tensor.gemm3"] + s["tensor.gemm4"]
    quads = counts["valid"] + counts["pruned"]
    lookups = counts["cache_hits"] + counts["cache_misses"]
    shard_max = max(shard_walls, default=0.0)
    dist_s = s["dist.stage_dataset"] + s["dist.merge"]
    # A sharded run's critical path through its shards is accounted by
    # the shard walls; what the parent spends beyond that and its own
    # layers is spawn and coordination.
    unattributed = wall_s - run_attributed_s - shard_max
    return {
        "tensor.gemm4_s": s["tensor.gemm4"],
        "tensor.gemm4_calls": calls["tensor.gemm4"],
        "tensor.gemm3_s": s["tensor.gemm3"],
        "tensor.gemm3_calls": calls["tensor.gemm3"],
        "device.combine_s": s["device.combine"],
        "tensor.gops_per_s": per(counts["tensor_ops"], gemm_s) / 1e9,
        "bounds.quad_s": s["bounds.quad"],
        "bounds.calls": calls["bounds.quad"],
        "prune.pruned_frac": per(counts["pruned"], quads),
        "prune.rounds_elided": counts["rounds_elided"],
        "complete.quad_s": s["complete.quad"],
        "complete.full3_s": s["complete.full3"],
        "k2.score_s": s["k2.score"],
        "k2.cells_per_s": per(counts["score_cells"], s["k2.score"]),
        "apply_score.self_s": s["apply_score"],
        "apply_score.valid_quads": counts["valid"],
        "reduce.add_round_s": s["reduce.add_round"],
        "reduce.kth_s": s["reduce.kth"],
        "cache.lookup_s": s["cache.lookup"],
        "cache.hit_rate": per(counts["cache_hits"], lookups),
        "stage.busy_s": tracer.total_s[STAGE_LAYER],
        "stage.overlap_s": counts["stage_overlap_s"],
        "journal.commit_s": s["journal.commit"],
        "journal.commits": calls["journal.commit"],
        "dist.stage_dataset_s": s["dist.stage_dataset"],
        "dist.merge_s": s["dist.merge"],
        "dist.shard_wall_max_s": shard_max,
        "dist.straggler_ratio": per(shard_max, sum(shard_walls) / len(shard_walls))
        if shard_walls
        else 0.0,
        "dist.spawn_overhead_s": wall_s - shard_max - dist_s if shard_walls else 0.0,
        "dist.threshold_syncs": counts["threshold_syncs"],
        "datasets.encode_s": s["datasets.encode"],
        "pairwise.tables_s": s["pairwise.tables"],
        "search.rounds": counts["rounds"],
        "search.unattributed_s": unattributed,
        "search.unattributed_frac": per(unattributed, wall_s),
        "obs.trace_overhead_frac": per(wall_s, untraced_wall_s) - 1.0,
    }
