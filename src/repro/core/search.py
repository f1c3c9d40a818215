"""The Epi4Tensor search driver — Algorithm 1 of the paper.

Single entry point for exhaustive fourth-order epistasis detection over the
simulated tensor-core substrate:

1. binarize (and pad) the dataset, "transfer" it to every device;
2. precompute ``indivPop``/``pairwPop`` and the lgamma lookup table;
3. run the four nested block loops.  Per ``(Wi, Xi)``: combine ``W x X`` and
   sweep the third-order corners for every tail SNP; per ``(Wi, Xi, Yi)``:
   combine/sweep ``W x Y`` and ``X x Y``; per round ``(Wi, Xi, Yi, Zi)``:
   combine ``Y x Z``, run the 4-way tensor GEMM, complete + score + reduce;
4. multi-GPU: outer (``Wi``) iterations are dynamically scheduled over the
   cluster (§3.6) — one host thread per device pulls the next unprocessed
   iteration from a shared queue, the Python-level realization of the
   paper's one-thread-per-GPU OpenMP ``schedule(dynamic)``.  The calling
   thread drives the first device, so a 1-device search starts no extra
   thread; NumPy's BLAS and bit-ops release the GIL, so devices overlap
   on multicore hosts.  Each device reduces locally, the host reduces at
   the end.

Three hot-path optimizations ride on top of the seed algorithm, all exactly
result-preserving:

- a **per-``Wi`` sweep hold**, always on: the 3-way sweeps whose first
  block is ``Wi`` are kept for the whole outer iteration, the loop scope
  that reads them (§3.3's three-phase scheme).  Sweep ``(Wi, b)`` is the
  ``wx`` sweep of pair ``(Wi, b)`` and the ``wy`` sweep of every
  ``Xi <= b``, so a search runs ``2*C(nb+2, 3)`` tensor3 launches instead
  of the seed loop's ``2*C(nb+1, 2) + 4*C(nb+2, 3)`` (see
  :mod:`repro.perfmodel.workload`).
- a **round-operand cache** (:mod:`repro.core.operand_cache`), off by
  default: the loop nest re-requests the same ``(class, off_a, off_b)``
  combine outputs, ``xy`` sweeps and completed triplets across pairs and
  outer iterations (``xy`` across ``Wi``, ``yz`` across every outer
  pair); with the cache enabled that work is computed on first use and
  served from a byte-bounded LRU afterwards.  Cache hits skip kernel-launch
  accounting, so the device work series always reflect executed work.
- a **batched round pipeline**, the one loop nest every run goes
  through: rounds sharing one ``(Wi, Xi)`` pair are staged in groups of
  ``batch_rounds``, and with ``batch_rounds > 1`` each group's ``yz``
  combines and 4-way GEMMs are fused into wide batched launches (§3.3
  launch-overhead amortization).  With ``n_streams > 1`` a
  double-buffered operand stager prepares round group ``r+1`` on a
  :class:`~repro.device.streams.HostStream` while group ``r`` scores on
  the calling thread; ``n_streams == 1`` stages every group inline.

The tensor GEMMs run for real (exact integer results); device time is
*accounted*, not emulated — see :mod:`repro.device` and
:mod:`repro.perfmodel`.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.bitops.bitmatrix import BitMatrix
from repro.bitops.combine import diagonal_compact
from repro.core.apply_score import RoundOperands, score_round
from repro.core.blocks import BlockScheme
from repro.core.journal import RoundJournal, domain_clause, search_fingerprint
from repro.core.operand_cache import CacheStats, OperandCache
from repro.core.pairwise import LowOrderTables, pairw_pop
from repro.core.reduction import TopKReducer, reduce_solutions
from repro.core.selfcheck import verify_round_best
from repro.core.solution import MAX_SNP_INDEX, Solution
from repro.datasets.dataset import Dataset
from repro.datasets.encoding import EncodedDataset, encode_dataset
from repro.device.cluster import ScheduleResult, VirtualCluster
from repro.device.specs import A100_PCIE, GPUSpec
from repro.device.streams import HostStream, stage_lookahead
from repro.device.virtual_gpu import VirtualGPU
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.perfmodel.workload import outer_iteration_tensor_ops
from repro.scoring.bounds import K2BoundKernel
from repro.scoring.k2 import K2Score
from repro.scoring.lgamma_table import LgammaTable
from repro.scoring.workspace import CHUNK_POSITIONS, K2CellTerms, K2Workspace
from repro.utils.timing import Timer


@dataclass(frozen=True)
class SearchConfig:
    """Tunables of one search run.

    Attributes:
        block_size: ``B``, SNPs per block (paper default 32; smaller values
            are appropriate for CPU-simulated runs).
        engine_kind: ``"and_popc"``, ``"xor_popc"`` or ``None`` (pick the
            device's native kind).
        n_streams: concurrent evaluation rounds per device.  Always feeds
            the §4.4 stream model on the projected-time side; it is also a
            real execution knob — ``n_streams - 1`` round groups (at most
            4) are staged ahead on a host stream while the current group
            scores, and ``1`` stages every group inline.  Results are
            identical for any value.
        top_k: number of ranked solutions to report (1 = the paper's
            single-best reduction).
        selfcheck: re-derive every round's best quad through an independent
            bitwise path and abort on any disagreement (paranoia mode for
            long production runs; see :mod:`repro.core.selfcheck`).
        cache_mb: round-operand cache budget in megabytes.  ``None`` or
            ``0`` disables caching; ``float("inf")`` is unbounded
            (charged to the memory model at the full working set).  The
            cache sits behind the per-``Wi`` sweep hold and adds reuse
            across pairs and outer iterations.  Results are bit-identical
            either way — the cache only changes which launches execute.
        batch_rounds: evaluation rounds fused per tensor-GEMM launch
            group.  ``1`` issues the seed loop's launches one for one;
            larger values stack the ``yz`` operands of consecutive rounds
            sharing one ``(Wi, Xi)`` pair into a single wide GEMM, so
            per-launch overhead is amortized over the group (§3.3).
            Results are bit-identical for any value — integer corner
            counts do not depend on GEMM blocking.
        prune: enable the admissible branch-and-bound gate (see
            :mod:`repro.scoring.bounds`): quads whose K2 lower bound
            exceeds the current top-k threshold are dropped before
            completion and scoring.
            The bound never overestimates and ties are never pruned, so
            results stay **bit-identical** to the exhaustive run; only
            the executed score-cell accounting shrinks.
    """

    block_size: int = 16
    engine_kind: str | None = None
    n_streams: int = 1
    top_k: int = 1
    selfcheck: bool = False
    cache_mb: float | None = None
    batch_rounds: int = 1
    prune: bool = True

    def __post_init__(self) -> None:
        if self.block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {self.block_size}")
        if self.n_streams < 1:
            raise ValueError(f"n_streams must be >= 1, got {self.n_streams}")
        if self.batch_rounds < 1:
            raise ValueError(
                f"batch_rounds must be >= 1, got {self.batch_rounds}"
            )
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.cache_mb is not None and (
            math.isnan(self.cache_mb) or self.cache_mb < 0
        ):
            raise ValueError(
                f"cache_mb must be >= 0 (or inf/None), got {self.cache_mb}"
            )

    @property
    def cache_budget_bytes(self) -> float:
        """Configured cache budget in bytes (0 when disabled, may be inf)."""
        if self.cache_mb is None or self.cache_mb <= 0:
            return 0
        if math.isinf(self.cache_mb):
            return math.inf
        return self.cache_mb * 1e6


@dataclass
class SearchResult:
    """Outcome of a search: the best quad plus full execution accounting.

    Attributes:
        solution: best quad + score (lower is better after normalization).
        top_solutions: the ``config.top_k`` best quads, ranked (best first).
        block_scheme: resolved block layout (incl. useful-work ratio).
        schedule: the modelled multi-GPU outer-loop schedule (also set for
            1 GPU).  The executed device assignment is dynamic; see
            ``executed_assignment``.
        executed_assignment: outer iterations actually run per device, in
            completion-commit order.
        phase_seconds: wall time by phase (``combine``, ``tensor3``,
            ``tensor4``, ``score``, ``pairwise``, ``encode``).  With
            several devices these are busy seconds summed over device
            threads and may exceed ``wall_seconds``.
        wall_seconds: end-to-end wall time of :meth:`Epi4TensorSearch.run`.
        n_samples: ``N`` used for the scaled-quads metric.
        cache_stats: round-operand cache snapshot (``None`` = cache off).
        spec_name / engine_name / n_devices: provenance.
        metrics: the run's metrics registry — every device's work series,
            phase seconds, cache and journal accounting.
    """

    solution: Solution
    top_solutions: list[Solution]
    block_scheme: BlockScheme
    schedule: ScheduleResult
    phase_seconds: dict[str, float]
    wall_seconds: float
    n_samples: int
    spec_name: str
    engine_name: str
    n_devices: int
    metrics: MetricsRegistry
    cache_stats: CacheStats | None = None
    executed_assignment: list[list[int]] = field(default_factory=list)

    @property
    def best_quad(self) -> tuple[int, int, int, int]:
        return self.solution.quad

    @property
    def phase_seconds_by_device(self) -> dict[str, dict[str, float]]:
        """``{phase: {device_label: seconds}}`` from the labeled metrics
        series — per-device attribution that survives threaded workers
        finishing out of order."""
        out: dict[str, dict[str, float]] = {}
        for key, value in self.metrics.series(
            "epi4_phase_seconds_total"
        ).items():
            labels = dict(key)
            phase = labels.get("phase", "")
            out.setdefault(phase, {})[labels.get("device", "")] = value
        return out

    @property
    def best_score(self) -> float:
        return self.solution.score

    @property
    def quads_per_second_scaled(self) -> float:
        """Measured unique quads x samples per wall second (the paper's
        headline metric, computed on the *simulator's* wall clock).

        Returns ``0.0`` for degenerate zero-duration runs — ``inf`` would
        poison downstream benchmark JSON aggregation.
        """
        if self.wall_seconds <= 0:
            return 0.0
        return self.block_scheme.unique_quads * self.n_samples / self.wall_seconds


class Epi4TensorSearch:
    """Exhaustive fourth-order search on a (simulated) GPU system.

    Args:
        dataset: a raw :class:`Dataset` (it will be encoded and padded) or a
            pre-encoded :class:`EncodedDataset` whose SNP count is already a
            multiple of the block size.
        config: search tunables.
        spec: GPU model to account against (default: A100 PCIe, system S2).
        n_gpus: devices in the simulated system.
    """

    def __init__(
        self,
        dataset: Dataset | EncodedDataset,
        config: SearchConfig | None = None,
        *,
        spec: GPUSpec = A100_PCIE,
        n_gpus: int = 1,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or SearchConfig()
        self.spec = spec
        #: Observability sinks.  The default no-op tracer keeps the
        #: instrumented hot paths within noise of an uninstrumented
        #: build; pass a real :class:`~repro.obs.trace.Tracer` to record
        #: the span tree.  ``metrics`` defaults to a fresh registry per
        #: :meth:`run` (a caller-supplied registry accumulates across
        #: runs instead).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._user_metrics = metrics
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        encode_timer = Timer()
        if isinstance(dataset, Dataset):
            if dataset.n_snps < 4:
                raise ValueError(f"need at least 4 SNPs, got {dataset.n_snps}")
            with encode_timer, self.tracer.span("encode", dev="host"):
                encoded = encode_dataset(dataset, block_size=self.config.block_size)
        else:
            encoded = dataset
            if encoded.n_snps % self.config.block_size:
                raise ValueError(
                    f"encoded dataset has {encoded.n_snps} SNPs, not a multiple "
                    f"of block_size={self.config.block_size}; encode with padding"
                )
        if encoded.n_snps - 1 > MAX_SNP_INDEX:
            raise ValueError(
                f"{encoded.n_snps} SNPs exceed the 16-bit index limit "
                f"({MAX_SNP_INDEX + 1})"
            )
        if not encoded.n_controls or not encoded.n_cases:
            empty = "controls (class 0)" if not encoded.n_controls else "cases (class 1)"
            raise ValueError(
                f"dataset has no {empty}; the search needs both phenotype classes"
            )
        self.encoded = encoded
        self.scheme = BlockScheme(
            n_snps=encoded.n_snps,
            n_real_snps=encoded.n_real_snps,
            block_size=self.config.block_size,
        )
        kind = self.config.engine_kind or spec.native_engine_kind
        if kind == "and_popc" and not spec.supports_and_popc:
            raise ValueError(
                f"{spec.name} does not support AND+POPC; use engine_kind='xor_popc'"
            )
        # §3.3's design constraint, enforced up front: the configured search
        # must fit the modelled device's memory — the round-operand cache
        # budget is a first-class component of that footprint.
        from repro.device.memory import check_fits, estimate_search_memory

        self.memory_estimate = estimate_search_memory(
            encoded.n_snps,
            encoded.n_controls,
            encoded.n_cases,
            self.config.block_size,
            cache_budget_bytes=self.config.cache_budget_bytes,
            batch_rounds=self.config.batch_rounds,
        )
        check_fits(spec, self.memory_estimate)
        self.cluster = VirtualCluster(spec, n_gpus, engine_kind=kind)
        #: The search's one objective, K2: the reference callable is the
        #: selfcheck's independent scorer, the fused staged-lgamma kernel
        #: scores every round, and the admissible bound kernel of
        #: branch-and-bound pruning shares their lgamma table.
        self._score_min = K2Score(LgammaTable.for_samples(encoded.n_samples))
        self._staged = self._score_min.staged_kernel(encoded.n_samples)
        self._bound_kernel = K2BoundKernel(
            self._staged.table, encoded.n_controls, encoded.n_cases
        )
        #: Per-cell K2 terms with the run's term table, built at the start
        #: of every :meth:`run` (see :mod:`repro.scoring.workspace`); each
        #: device scores in its own workspace over them.
        self._cell_terms: K2CellTerms | None = None
        #: Canonical phase names reported in ``SearchResult.phase_seconds``.
        #: Per-(phase, device) attribution lives in the metrics registry
        #: as ``epi4_phase_seconds_total{phase=..., device=...}`` — the
        #: labeled replacement for the former shared ``Timer`` dict, which
        #: lost per-device attribution when threaded workers finished out
        #: of order.
        self._phase_names = (
            "encode", "pairwise", "combine", "tensor3", "tensor4", "score",
        )
        self._encode_seconds = encode_timer.elapsed
        self._run_span = None
        self._low: LowOrderTables | None = None
        #: Per-class packed planes, carrying the float32 planes every dense
        #: GEMM operand is formed from (built by ``_prepare_devices``).
        self._class_planes: list[BitMatrix] = []
        self._progress_callback = None
        self._progress_lock = threading.Lock()
        self._rounds_done = 0
        self._best_seen = Solution.worst()
        self._global_reducer = TopKReducer(self.config.top_k)
        self._cache: OperandCache | None = None

    # ------------------------------------------------------------------ #
    # Observability plumbing

    @contextmanager
    def _phase_scope(self, phase: str, device: int | str, span: str | None = None):
        """Time one phase block: opens a trace span (named ``span``, or the
        phase name) and charges the elapsed seconds to the labeled
        ``epi4_phase_seconds_total{phase=..., device=...}`` series.

        Recording at the *call site* under the executing device's label is
        what makes per-device attribution immune to threaded workers
        finishing out of order — aggregation over devices happens in the
        registry, never by summing shared mutable timers.

        The device is recorded as the non-identity ``dev`` tag so phase
        spans keep their plain documented labels (``combine``, not
        ``combine[0]``) — the enclosing ``device[d]`` span already carries
        the identity.
        """
        with self.tracer.span(span or phase, dev=device):
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.metrics.inc(
                    "epi4_phase_seconds_total",
                    time.perf_counter() - t0,
                    phase=phase,
                    device=str(device),
                )

    def phase_seconds_totals(self) -> dict[str, float]:
        """Phase wall/busy seconds summed over devices (canonical keys
        always present)."""
        by_phase = self.metrics.sum_by("epi4_phase_seconds_total", "phase")
        return {name: by_phase.get(name, 0.0) for name in self._phase_names}

    # ------------------------------------------------------------------ #

    def fingerprint(self, outer_iterations: Iterable[int] | None = None) -> str:
        """Identity string guarding journal resume.

        With ``outer_iterations`` (a restricted ``Wi`` sub-domain, e.g. one
        shard of a distributed run) the fingerprint gains a domain clause
        (see :func:`~repro.core.journal.domain_clause`), so one shard's
        journal can never be mistaken for another's — or for a full
        run's — even on the same dataset and configuration.
        """
        base = search_fingerprint(
            self.scheme.n_snps,
            self.scheme.n_real_snps,
            self.encoded.n_controls,
            self.encoded.n_cases,
            self.config.block_size,
            self.cluster.gpus[0].engine.name,
            self.config.top_k,
            self.cluster.n_gpus,
        )
        if outer_iterations is not None:
            base += domain_clause(self.scheme.nb, outer_iterations)
        return base

    def _validate_domain(self, outer_iterations) -> list[int]:
        """Validate a restricted outer-iteration domain: ints within
        ``[0, nb)``, non-empty, no duplicates.  Returns the domain as a
        sorted list."""
        domain = [int(wi) for wi in outer_iterations]
        if not domain:
            raise ValueError("outer_iterations must not be empty")
        seen: set[int] = set()
        for wi in domain:
            if not 0 <= wi < self.scheme.nb:
                raise ValueError(
                    f"outer iteration {wi} outside [0, {self.scheme.nb})"
                )
            if wi in seen:
                raise ValueError(f"outer iteration {wi} listed twice")
            seen.add(wi)
        return sorted(domain)

    def run(
        self,
        progress_callback: Callable[[int, int, Solution], None] | None = None,
        journal_path: str | os.PathLike | None = None,
        outer_iterations: Iterable[int] | None = None,
    ) -> SearchResult:
        """Execute the full search and return the globally best quad.

        Args:
            progress_callback: optional ``fn(completed_rounds, total_rounds,
                best_so_far)`` invoked after every evaluation round —
                multi-hour searches can report status or feed a UI.  The
                callback is serialized across device threads (called under
                a lock) and ``best_so_far`` is the global minimum over
                everything scored so far.
            journal_path: optional path to a crash-safe round journal (see
                :mod:`repro.core.journal`): every committed outer iteration
                appends one fsynced CRC frame, so a process killed at any
                byte offset resumes exactly-once with a bit-identical
                top-k.  A resumed run skips the journal's committed
                iterations; its counters/timers cover only the work
                actually re-executed.
            outer_iterations: optional restricted ``Wi`` domain — the
                communication-free shard decomposition of §3.6/§4.4.  Only
                the listed outer iterations are scheduled and executed; the
                result's top-k is this shard's local reduction, to be
                merged across shards by :mod:`repro.dist`.  The resume
                fingerprint gains a domain clause so per-shard journals
                cannot cross-contaminate.
        """
        self._progress_callback = progress_callback
        self._rounds_done = 0
        self._best_seen = Solution.worst()
        domain: list[int] | None = None
        if outer_iterations is not None:
            domain = self._validate_domain(outer_iterations)
        self._outer_iterations = domain
        fingerprint = self.fingerprint(domain)
        journal: RoundJournal | None = None
        if journal_path is not None:
            journal = RoundJournal.open(journal_path, fingerprint)

        if self._user_metrics is None:
            # Fresh registry per run: repeat run() calls stay independent.
            self.metrics = MetricsRegistry()
        # Devices count their work straight into the run's registry, under
        # their own ``device`` label.
        for gpu in self.cluster.gpus:
            gpu.attach_metrics(self.metrics)
        self.metrics.inc(
            "epi4_phase_seconds_total",
            self._encode_seconds,
            phase="encode",
            device="host",
        )
        # Pruning series exist (zero-valued) even when nothing prunes —
        # prune-off runs — so dashboards, golden fixtures and shard merges
        # see a stable metric schema.
        self.metrics.inc("epi4_prune_quads_total", 0, device="0")
        total_timer = Timer()
        run_span = self.tracer.span(
            "run",
            engine=self.cluster.gpus[0].engine.name,
            n_devices=self.cluster.n_gpus,
        )
        # Kept for explicit cross-thread parenting: device spans open on
        # device threads whose span stacks are empty, so they name this
        # span as their parent directly.
        self._run_span = run_span
        closes_journal = journal if journal is not None else nullcontext()
        with closes_journal, total_timer, run_span:
            with self.tracer.span("prepare"):
                schedule = self._make_schedule()
                self._prepare_devices()
                self._cache = OperandCache.create(self.config.cache_mb)
                self._cell_terms = K2CellTerms(
                    self._staged.table,
                    self.encoded.n_controls,
                    self.encoded.n_cases,
                )
            reducer = TopKReducer(self.config.top_k)
            self._global_reducer = reducer
            done: set[int] = set()
            if journal is not None:
                journal.seed_reducer(reducer)
                done |= journal.completed
            if done:
                self._best_seen = reducer.best
            if domain is not None:
                # Out-of-domain iterations are another shard's work: mark
                # them done so the device threads skip them.
                done |= set(range(self.scheme.nb)) - set(domain)
            executed: list[list[int]] = [[] for _ in self.cluster.gpus]
            commit_lock = threading.Lock()

            def run_iteration(executor: "_SingleDeviceExecutor", wi: int) -> None:
                outer_span = self.tracer.span(
                    "outer", wi=wi, dev=executor.device_id
                )
                with outer_span:
                    # The outer span is handed down explicitly so stage
                    # spans opened on the stager thread (empty span stack)
                    # parent correctly.
                    local = self._run_rounds(
                        executor, wi, parent_span=outer_span
                    )
                with commit_lock:
                    reducer.merge(local)
                    executed[executor.device_id].append(wi)
                    if journal is not None:
                        # Durable (fsynced) before the commit counts; a
                        # crash after this line re-runs nothing.
                        journal.commit(wi, reducer.result())

            self._run_devices(done, run_iteration)
            with self.tracer.span("reduce"):
                top = reducer.result()
            solution = top[0] if top else reduce_solutions([])

        # Absorb the remaining accounting sources into the unified
        # registry (the final, deterministic snapshot).
        if self._cache is not None:
            self._cache.stats.export_metrics(self.metrics)
        if journal is not None:
            journal.export_metrics(self.metrics)
        positions = self.metrics.total("epi4_applyscore_positions_total")
        if positions:
            # Mask-valid fraction of grid positions: pruned quads were
            # mask-valid too, so the ratio keeps its meaning (and its
            # prune-off value) whether or not the gate then dropped them.
            self.metrics.set_gauge(
                "epi4_applyscore_compaction_ratio",
                (
                    self.metrics.total("epi4_applyscore_valid_total")
                    + self.metrics.total("epi4_prune_quads_total")
                )
                / positions,
            )
        self.metrics.set_gauge("epi4_wall_seconds", total_timer.elapsed)
        result = SearchResult(
            solution=solution,
            top_solutions=top,
            block_scheme=self.scheme,
            schedule=schedule,
            executed_assignment=executed,
            phase_seconds=self.phase_seconds_totals(),
            wall_seconds=total_timer.elapsed,
            n_samples=self.encoded.n_samples,
            cache_stats=self._cache.stats if self._cache is not None else None,
            spec_name=self.spec.name,
            engine_name=self.cluster.gpus[0].engine.name,
            n_devices=self.cluster.n_gpus,
            metrics=self.metrics,
        )
        self.metrics.set_gauge(
            "epi4_quads_per_second_scaled", result.quads_per_second_scaled
        )
        return result

    # ------------------------------------------------------------------ #
    # Phases

    def _run_devices(self, done: set[int], run_iteration) -> None:
        """One host thread per device, each pulling the next pending outer
        iteration from a shared list — OpenMP ``schedule(dynamic)`` over
        the ``Wi`` loop with one thread per GPU (§3.6).  The calling
        thread drives the first device.

        An exception on any device thread stops the others (each checks
        before taking more work) and is re-raised here."""
        pending = deque(wi for wi in range(self.scheme.nb) if wi not in done)
        lock = threading.Lock()
        failed = threading.Event()

        def next_iteration() -> int | None:
            with lock:
                if failed.is_set() or not pending:
                    return None
                return pending.popleft()

        def device_worker(gpu: VirtualGPU) -> None:
            executor = _SingleDeviceExecutor(self, gpu, self._cache)
            try:
                with self.tracer.span(
                    "device", parent_span=self._run_span, device=gpu.device_id
                ):
                    while (wi := next_iteration()) is not None:
                        run_iteration(executor, wi)
            except BaseException:
                failed.set()  # release the other workers; the run is over
                raise

        gpus = self.cluster.gpus
        with ThreadPoolExecutor(
            max_workers=max(1, len(gpus) - 1),
            thread_name_prefix="epi4-device",
        ) as pool:
            futures = [pool.submit(device_worker, gpu) for gpu in gpus[1:]]
            device_worker(gpus[0])
            for future in futures:
                future.result()  # re-raise the first worker failure

    def _make_schedule(self) -> ScheduleResult:
        costs = [
            float(
                outer_iteration_tensor_ops(
                    wi, self.scheme.nb, self.scheme.block_size, self.encoded.n_samples
                )
            )
            for wi in range(self.scheme.nb)
        ]
        domain = getattr(self, "_outer_iterations", None)
        return self.cluster.schedule(costs, domain)

    def _prepare_devices(self) -> None:
        """Dataset transfer + low-order precomputation (indivPop/pairwPop).

        As in §3.6, every device receives the full dataset and a full copy
        of the lgamma table and low-order tables; the precomputation itself
        is done once (its cost is accounted on every device).
        """
        with self._phase_scope("pairwise", "host"):
            self._low = pairw_pop(self.encoded)
        # Dense GEMM operands are formed from float32 planes, unpacked
        # once per class here — before any device thread starts.
        self._class_planes = [
            self.encoded.class_matrix(c).with_float_planes() for c in (0, 1)
        ]
        m, n = self.encoded.n_snps, self.encoded.n_samples

        for gpu in self.cluster.gpus:
            gpu.transfer_to_device(self.encoded.nbytes)
            gpu.launch_pairwise(2 * (2 * m) * (2 * m) * n)

    def _run_rounds(
        self,
        executor: "_SingleDeviceExecutor",
        wi: int,
        parent_span=None,
    ) -> TopKReducer:
        """The Algorithm 1 loop nest of one outer iteration ``Wi``.

        Operands are requested through the executor's ``combine``/
        ``sweep3`` primitives.  The sweeps whose first block is ``Wi``
        are held until the iteration returns (see :meth:`_stage_tasks`),
        so each runs once however many pairs read it; the ``xy`` sweeps
        of a pair live for that pair.  With the round-operand cache
        enabled, the ``xy`` sweeps are also shared across outer
        iterations, the ``yz`` combines across every enclosing
        ``(Wi, Xi)`` and the completed triplets across rounds.

        Rounds sharing one ``(Wi, Xi)`` pair are chunked into groups of
        ``batch_rounds``; each group's ``yz`` combines and 4-way GEMMs
        issue as fused batched launches.  With ``n_streams == 1`` every
        group stages inline; otherwise up to ``n_streams`` groups (capped
        by :func:`~repro.device.streams.stage_lookahead`) are in flight on
        an in-order :class:`HostStream` — the stager thread runs *all*
        device launches (so kernel accounting never races the scoring
        thread) while the calling thread scores.  Every configuration is
        bit-identical.
        """
        assert self._low is not None, "_prepare_devices must run first"
        depth = stage_lookahead(self.config.n_streams)
        reducer = TopKReducer(self.config.top_k)
        tasks = self._stage_tasks(executor, wi, parent_span)
        if depth == 0:
            for task in tasks:
                self._score_staged_group(executor, reducer, task())
            return reducer

        stream = HostStream(f"epi4-stage-{executor.device_id}")
        pending: deque = deque()

        def score_next() -> None:
            future = pending.popleft()
            wait_t0 = time.perf_counter()
            staged = future.result()
            wait_s = time.perf_counter() - wait_t0
            # Stage time the scoring thread did NOT wait for = real
            # overlap won by the stream.
            self.metrics.inc(
                "epi4_stage_overlap_seconds_total",
                max(0.0, staged.stage_seconds - wait_s),
                device=str(executor.device_id),
            )
            self._score_staged_group(executor, reducer, staged)

        try:
            for task in tasks:
                pending.append(stream.submit(task))
                if len(pending) > depth:
                    score_next()
            while pending:
                score_next()
        finally:
            # Drain in-flight stage work before this iteration returns: no
            # launch may outlive its iteration.  A primary exception wins
            # over any secondary stager failure.
            for future in pending:
                try:
                    future.result()
                except BaseException:
                    pass
            stream.close()
        return reducer

    def _stage_tasks(
        self,
        executor: "_SingleDeviceExecutor",
        wi: int,
        parent_span,
    ) -> Iterator[Callable[[], "_StagedGroup"]]:
        """Stage tasks of every round group of outer iteration ``wi``,
        generated lazily in loop order, so a pair's own operands are freed
        once its last group is scored.

        ``held`` keeps every sweep ``(wi, b)`` — keyed ``(cls, b * B)`` —
        for the whole iteration: it is the ``wx`` sweep of pair ``(wi, b)`` and the ``wy`` sweep of every ``Xi <= b`` (and,
        at ``Xi == wi``, the ``xy`` sweep too).  It is local to this
        generator, so every iteration starts empty, and only the
        stage side (the stager thread, or the inline path) touches it.
        """
        nb, batch = self.scheme.nb, self.config.batch_rounds
        held: dict[tuple[int, int], np.ndarray] = {}
        for xi in range(wi, nb):
            rounds = [
                (yi, zi)
                for yi in range(xi, nb)
                for zi in range(yi, nb)
            ]
            # Per-(wi, xi) operands shared across the pair's groups;
            # mutated only by the (single, in-order) stager thread.
            shared: dict = {}
            for start in range(0, len(rounds), batch):
                yield self._make_stage_task(
                    executor,
                    wi,
                    xi,
                    rounds[start : start + batch],
                    shared,
                    held,
                    parent_span,
                )

    def _make_stage_task(
        self,
        executor: "_SingleDeviceExecutor",
        wi: int,
        xi: int,
        group: list[tuple[int, int]],
        shared: dict,
        held: dict,
        parent_span,
    ) -> Callable[[], "_StagedGroup"]:
        """Build the (idempotent) stage closure for one round group: all
        combines, sweeps and fused tensor launches the group's rounds
        need, returning host-resident operands ready to score.

        Launches issue in the seed loop's order: the pair's ``wx``
        combine + sweep, the per-``Yi`` ``wy``/``xy`` sweeps, the ``yz``
        combines, then the fused 4-way GEMM.  Sweeps whose first block is
        ``Wi`` come from the iteration's ``held`` sweeps, so they launch
        only on first use.  A same-block ``wx`` or ``yz`` enters the 4-way
        GEMM diagonal-compact: only its ``w < x`` rows can feed a valid
        quad.
        """
        b = self.scheme.block_size
        wo, xo = wi * b, xi * b

        def rows4(op: BitMatrix, same_block: bool) -> BitMatrix:
            return diagonal_compact(op, b) if same_block else op

        def held_sweep(
            cls: int, off_b: int, combined: BitMatrix | None = None
        ) -> np.ndarray:
            sweep = held.get((cls, off_b))
            if sweep is None:
                sweep = held[cls, off_b] = executor.sweep3(
                    cls, wo, off_b, combined=combined
                )
            return sweep

        def stage() -> _StagedGroup:
            t0 = time.perf_counter()
            with self.tracer.span(
                "stage",
                parent_span=parent_span,
                wi=wi,
                xi=xi,
                dev=executor.device_id,
            ):
                if "wx" not in shared:
                    wx = [executor.combine(c, wo, xo) for c in (0, 1)]
                    shared["sweep_wx"] = [
                        held_sweep(c, xo, combined=wx[c]) for c in (0, 1)
                    ]
                    shared["wx"] = [rows4(op, wi == xi) for op in wx]
                    shared["sweeps"] = {}
                wx = shared["wx"]
                sweeps = shared["sweeps"]
                for yi, _zi in group:
                    if yi not in sweeps:
                        yo = yi * b
                        sweeps[yi] = (
                            [held_sweep(c, yo) for c in (0, 1)],
                            [
                                held_sweep(c, yo)
                                if xi == wi
                                else executor.sweep3(c, xo, yo)
                                for c in (0, 1)
                            ],
                        )
                yz_by_round = [
                    [
                        rows4(executor.combine(c, yi * b, zi * b), yi == zi)
                        for c in (0, 1)
                    ]
                    for yi, zi in group
                ]
                corner4_by_class = [
                    executor.gemm4_batch(wx[c], [yz[c] for yz in yz_by_round])
                    for c in (0, 1)
                ]
            return _StagedGroup(
                wi=wi,
                xi=xi,
                sweep_wx=shared["sweep_wx"],
                yi_sweeps={yi: sweeps[yi] for yi, _ in group},
                rounds=[
                    (yi, zi, (corner4_by_class[0][k], corner4_by_class[1][k]))
                    for k, (yi, zi) in enumerate(group)
                ],
                stage_seconds=time.perf_counter() - t0,
            )

        return stage

    def _score_staged_group(
        self,
        executor: "_SingleDeviceExecutor",
        reducer: TopKReducer,
        staged: "_StagedGroup",
    ) -> None:
        """Score every round of a staged group (host math only — all
        device launches already happened in the stage task)."""
        b = self.scheme.block_size
        wo, xo = staged.wi * b, staged.xi * b
        for yi, zi, corner4 in staged.rounds:
            yo, zo = yi * b, zi * b
            sweep_wy, sweep_xy = staged.yi_sweeps[yi]
            round_t0 = time.perf_counter()
            with self.tracer.span(
                "round", wi=staged.wi, xi=staged.xi, yi=yi, zi=zi
            ):
                operands = RoundOperands(
                    corner4=corner4,
                    corner3_wxy=tuple(
                        s[:, :, yo - xo : yo - xo + b]
                        for s in staged.sweep_wx
                    ),
                    corner3_wxz=tuple(
                        s[:, :, zo - xo : zo - xo + b]
                        for s in staged.sweep_wx
                    ),
                    corner3_wyz=tuple(
                        s[:, :, zo - yo : zo - yo + b] for s in sweep_wy
                    ),
                    corner3_xyz=tuple(
                        s[:, :, zo - yo : zo - yo + b] for s in sweep_xy
                    ),
                    offsets=(wo, xo, yo, zo),
                    block_size=b,
                )
                scores, cells = self._score_round(executor, operands, reducer)
                with self._phase_scope("score", executor.device_id, span="score"):
                    executor.account_score(cells)
                with self._phase_scope("score", executor.device_id, span="reduce"):
                    reducer.add_round(scores, operands.offsets)
            self._note_round_done(executor, reducer, round_t0)

    def _note_round_done(
        self,
        executor: "_SingleDeviceExecutor",
        reducer: TopKReducer,
        round_t0: float,
    ) -> None:
        """Per-round bookkeeping: round metrics and the progress
        callback."""
        dev = str(executor.device_id)
        self.metrics.inc("epi4_rounds_total", device=dev)
        self.metrics.observe(
            "epi4_round_seconds", time.perf_counter() - round_t0, device=dev
        )
        if self._progress_callback is not None:
            with self._progress_lock:
                self._rounds_done += 1
                self._best_seen = min(self._best_seen, reducer.best)
                self._progress_callback(
                    self._rounds_done, self.scheme.n_rounds, self._best_seen
                )

    # ------------------------------------------------------------------ #
    # Branch-and-bound pruning (see repro.scoring.bounds)

    def _prune_threshold(self, reducer: TopKReducer) -> float:
        """Tightest currently-safe prune threshold.

        The minimum over the per-iteration reducer and the run-global
        reducer (shared by every device of this run).  Each
        contributor's ``kth_score`` is the k-th best of a *subset* of
        the final candidate set, hence ``>=`` the final k-th best;
        pruning strictly above the minimum can therefore never drop a
        final top-k member.  ``+inf`` (both under-filled) disables
        pruning."""
        return min(reducer.kth_score(), self._global_reducer.kth_score())

    # ------------------------------------------------------------------ #
    # Scoring

    def _score_round(
        self,
        executor: "_SingleDeviceExecutor",
        operands: RoundOperands,
        reducer: TopKReducer,
    ) -> tuple[np.ndarray, int]:
        """Run the fused completion+scoring path on one round.

        Returns ``(scores, executed_score_cells)``.  Only the
        mask-compacted positions are scored (and accounted), completed
        triplets are served through the executor's ``full3`` hook, and
        the ``epi4_applyscore_*`` series are recorded.  With pruning on,
        the bound-first gate drops positions that provably cannot enter
        the top-k before completion runs.  With ``config.selfcheck`` the
        round's best quad is re-derived independently and a disagreement
        raises :class:`~repro.core.selfcheck.SelfCheckError`.
        """
        dev = str(executor.device_id)
        with self._phase_scope("score", executor.device_id, span="derive"):
            scores, stats = score_round(
                operands,
                self._low.pairs,
                self._staged,
                self.scheme.n_real_snps,
                full3_provider=executor.full3,
                bound_kernel=self._bound_kernel,
                prune_threshold=(
                    (lambda: self._prune_threshold(reducer))
                    if self.config.prune
                    else None
                ),
                workspace=executor.workspace,
            )
            self.metrics.inc(
                "epi4_applyscore_positions_total", stats.positions, device=dev
            )
            self.metrics.inc(
                "epi4_applyscore_valid_total", stats.valid, device=dev
            )
            self.metrics.inc(
                "epi4_applyscore_chunks_total", stats.chunks, device=dev
            )
            if stats.pruned:
                self.metrics.inc(
                    "epi4_prune_quads_total", stats.pruned, device=dev
                )
        if self.config.selfcheck:
            verify_round_best(
                self.encoded, scores, operands.offsets, self._score_min
            )
        return scores, stats.valid * 81 * 2


@dataclass
class _StagedGroup:
    """Host-resident operands of one staged round group.

    Produced by a stage task (all device launches done), consumed by
    :meth:`Epi4TensorSearch._score_staged_group` (host math only).
    """

    wi: int
    xi: int
    #: Per-class ``wx`` third-order sweeps (shared across the pair's
    #: groups).
    sweep_wx: list
    #: ``{yi: (sweep_wy_per_class, sweep_xy_per_class)}`` for the group's
    #: rounds.
    yi_sweeps: dict
    #: ``(yi, zi, per_class_corner4)`` per round, in round order.
    rounds: list
    #: Wall seconds the stage task spent (for the overlap metric).
    stage_seconds: float


class _SingleDeviceExecutor:
    """Kernel launches on one device (the paper's outer-partition scheme).

    Operand handles are plain :class:`BitMatrix` objects.

    ``combine``, ``sweep3`` and ``full3`` all go through one ledger,
    :meth:`_operand`: with an :class:`OperandCache` attached, results are
    served from the cache when possible, and a hit skips the launch (and
    its work accounting) entirely.
    """

    def __init__(
        self,
        search: "Epi4TensorSearch",
        gpu: VirtualGPU,
        cache: OperandCache | None = None,
    ) -> None:
        self._search = search
        self._gpu = gpu
        self._cache = cache
        self._planes = search._class_planes
        assert search._cell_terms is not None, "run() builds the term table"
        #: This device's scoring buffers (scoring runs on one thread).
        self.workspace = K2Workspace(search._cell_terms, CHUNK_POSITIONS)

    @property
    def device_id(self) -> int:
        return self._gpu.device_id

    # -- operand ledger --------------------------------------------------- #

    def _operand(self, kind: str, key: tuple, compute: Callable[[], Any]) -> Any:
        """Serve one ``kind`` operand: from the cache under ``(kind,
        *key)`` when one is attached, else by running ``compute``.

        The one count of operand work: every request adds to
        ``epi4_operand_requests_total`` and to exactly one of
        ``epi4_operand_executed_total`` / ``epi4_operand_cache_served_total``.
        """
        metrics = self._search.metrics
        dev = str(self.device_id)
        metrics.inc("epi4_operand_requests_total", kind=kind, device=dev)
        if self._cache is None:
            metrics.inc("epi4_operand_executed_total", kind=kind, device=dev)
            return compute()
        value, hit = self._cache.get_or_compute((kind, *key), compute)
        metrics.inc(
            "epi4_operand_cache_served_total"
            if hit
            else "epi4_operand_executed_total",
            kind=kind,
            device=dev,
        )
        return value

    # -- combine -------------------------------------------------------- #

    def combine(self, cls: int, off_a: int, off_b: int) -> BitMatrix:
        return self._operand(
            "combine",
            (cls, off_a, off_b),
            lambda: self._combine_cold(cls, off_a, off_b),
        )

    def _combine_cold(self, cls: int, off_a: int, off_b: int) -> BitMatrix:
        with self._search._phase_scope("combine", self.device_id):
            return self._gpu.launch_combine(
                self._planes[cls], off_a, off_b, self._search.scheme.block_size
            )

    # -- third-order sweep ---------------------------------------------- #

    def sweep3(
        self, cls: int, off_a: int, off_b: int, combined: BitMatrix | None = None
    ) -> np.ndarray:
        """Third-order corner sweep of the ``(off_a, off_b)`` pair over the
        tail ``[off_b, M)`` (the tail always starts at the second block —
        what makes the sweep cacheable by pair alone)."""
        if self._cache is None:

            def compute() -> np.ndarray:
                operand = combined
                if operand is None:
                    operand = self.combine(cls, off_a, off_b)
                return self._gemm3(operand, cls, off_b)

        else:
            # The factory deliberately ignores the in-hand ``combined``
            # operand and resolves the pair through the cache instead: its
            # work must be a function of the *key* alone.  Were it to depend
            # on whether the caller happened to pass ``combined``, the
            # executed combine volume (and the cache hit/miss totals) would
            # depend on which concurrent request wins the single-flight miss
            # — breaking the order-invariance the golden metrics comparison
            # (1 device vs 2 device threads) relies on.
            def compute() -> np.ndarray:
                return self._gemm3(self.combine(cls, off_a, off_b), cls, off_b)

        return self._operand("sweep", (cls, off_a, off_b), compute)

    def _gemm3(self, combined: BitMatrix, cls: int, t_start: int) -> np.ndarray:
        scheme = self._search.scheme
        with self._search._phase_scope("tensor3", self.device_id):
            return self._gpu.launch_tensor3(
                combined, self._planes[cls], t_start, scheme.n_snps,
                scheme.block_size,
            )

    # -- fourth-order GEMM ---------------------------------------------- #

    def gemm4_batch(
        self, wx: BitMatrix, yz_list: list[BitMatrix]
    ) -> list[np.ndarray]:
        """4-way corners for a round group sharing ``wx`` — one launch,
        fused when the group holds more than one round."""
        b = self._search.scheme.block_size
        if len(yz_list) == 1:
            with self._search._phase_scope("tensor4", self.device_id):
                return [self._gpu.launch_tensor4(wx, yz_list[0], b)]
        with self._search._phase_scope("tensor4", self.device_id, span="batch"):
            return self._gpu.launch_tensor4_batch(wx, yz_list, b)

    def account_score(self, n_cells: int) -> None:
        self._gpu.account_score_cells(n_cells)

    # -- completed-triplet reuse ---------------------------------------- #

    def full3(
        self,
        cls: int,
        triple: tuple[int, int, int],
        factory: Callable[[], np.ndarray],
    ) -> np.ndarray:
        """Completed third-order table for a block triple.

        The completed 27-cell table of a block triple is a pure function
        of its (non-decreasing) block offsets — the corner slice is the
        same sweep output and the completion gathers the same global pair
        tables whichever derived level reads the triple — so the factory is
        key-determined *in value* and the single-flight admission works
        exactly like the combine/sweep entries.  The factory runs
        host-side completion arithmetic (no device launch), so no launch
        accounting can be perturbed by which concurrent request computes.
        """
        return self._operand("full3", (cls, *triple), factory)


def search_best_quad(
    dataset: Dataset,
    *,
    block_size: int = 16,
    spec: GPUSpec = A100_PCIE,
    n_gpus: int = 1,
    engine_kind: str | None = None,
    prune: bool = True,
) -> SearchResult:
    """One-call convenience wrapper around :class:`Epi4TensorSearch`."""
    config = SearchConfig(
        block_size=block_size, engine_kind=engine_kind, prune=prune
    )
    return Epi4TensorSearch(dataset, config, spec=spec, n_gpus=n_gpus).run()
