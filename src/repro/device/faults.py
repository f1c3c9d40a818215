"""Deterministic fault injection for the virtual device layer.

Long exhaustive searches (the paper's largest single-GPU run is ~14.5 h)
are exactly where transient device faults, pre-emption and silent data
corruption bite.  This module provides the *testing* half of the
resilience story: a seedable, fully deterministic harness that wraps a
:class:`~repro.device.virtual_gpu.VirtualGPU` and makes its kernel
launches and transfers fail — or silently corrupt their outputs — on a
configured schedule.  The *recovery* half (retry/backoff, quarantine,
degraded re-execution) lives in :mod:`repro.core.resilience` and
:mod:`repro.core.search`.

Fault model
-----------

Four fault kinds are modelled:

``transient``
    The launch raises :class:`DeviceFault`; retrying the same launch (or
    the enclosing ``Wi`` iteration) on the same device can succeed.
``persistent``
    Once triggered, the device is *dead*: this and **every subsequent**
    launch on it raises :class:`DeviceFault` (``kind="persistent"``).
    Models a hung/ejected GPU; only quarantine + requeue can make
    progress.
``corrupt``
    The launch *succeeds* but its output is silently corrupted (an
    out-of-range count is written into the result array).  Only applied
    to ``tensor4`` launches: the fourth-order corners are recomputed
    fresh every round, so corruption is contained to one round and the
    search's round-level output validation / self-check can catch it.
    (Corrupting cacheable operands — ``combine``/``tensor3`` — would let
    a poisoned cache entry silently infect *other* rounds, which is a
    different failure class than the per-launch SDC modelled here.)
``hang``
    The launch *stalls forever* instead of failing fast: the calling
    thread blocks until the search's hang watchdog
    (:class:`repro.core.watchdog.LaunchWatchdog`, armed via
    ``--deadline-ms``) trips the launch, at which point the stall is
    cancelled and surfaces as :class:`DeviceFault` (``kind="hang"``) into
    the ordinary retry/requeue/quarantine path.  Injecting ``hang``
    without an armed watchdog is a configuration error (nothing would
    ever cancel the stall); :class:`FaultyGPU` degrades it to an
    immediate hang fault so unit tests stay hang-free.

Triggers are count-based (``count=N``: the first N matching launches),
position-based (``at=N``: exactly the Nth matching launch, 1-based) or
probabilistic (``p=0.05``: Bernoulli per matching launch, drawn from the
plan's seeded PRNG), optionally filtered by device, kernel name and the
outer (``Wi``) iteration being executed.  Everything is deterministic
given the spec string (including the seed), so an injected-fault run is
exactly reproducible.

Spec strings
------------

The CLI's ``--inject-faults`` accepts a compact spec: ``;``-separated
clauses, each ``kind:key=value,key=value,...``.  A bare ``seed=N``
clause seeds the probabilistic triggers.  Examples::

    transient:op=tensor4,count=2
    persistent:device=1,at=5
    corrupt:iter=0;transient:p=0.01;seed=42

"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.device.virtual_gpu import VirtualGPU

#: Kernel names a rule's ``op=`` filter may name (launch vocabulary of
#: :class:`VirtualGPU`).
LAUNCH_OPS = (
    "transfer",
    "combine",
    "pairwPop",
    "tensor3",
    "tensor4",
    "applyScore",
)

FAULT_KINDS = ("transient", "persistent", "corrupt", "hang")

#: Keys each fault kind accepts in a spec clause.  All kinds share the
#: same filter/trigger vocabulary today, but the table is consulted
#: per-kind so error messages can say *which* kind rejected the key and
#: future kind-specific keys slot in without touching the parser.
KIND_KEYS: dict[str, tuple[str, ...]] = {
    kind: ("op", "device", "iter", "count", "at", "p")
    for kind in FAULT_KINDS
}


class DeviceFault(RuntimeError):
    """A (simulated) device-side failure of one kernel launch.

    Attributes:
        device_id: device the launch ran on.
        op: kernel name (``tensor4``, ``combine``, ...).
        kind: ``"transient"``, ``"persistent"`` or ``"hang"``.
        wi: outer iteration being executed when the fault fired (``None``
            outside the search loop, e.g. during dataset transfer).
    """

    def __init__(
        self, device_id: int, op: str, kind: str, wi: int | None = None
    ) -> None:
        self.device_id = device_id
        self.op = op
        self.kind = kind
        self.wi = wi
        where = f" during outer iteration {wi}" if wi is not None else ""
        super().__init__(
            f"{kind} device fault on device {device_id} in {op!r}{where}"
        )


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *what* fails, *where* and *when*.

    Attributes:
        kind: one of :data:`FAULT_KINDS` (``transient``, ``persistent``,
            ``corrupt``, ``hang``).
        op: kernel-name filter (``None`` = any launch; ``corrupt`` rules
            default to — and must target — ``tensor4``).
        device: device-id filter (``None`` = any device).
        iteration: outer-iteration filter (``None`` = any).
        count: fire on the first ``count`` matching launches.
        at: fire on exactly the ``at``-th matching launch (1-based).
        probability: fire per matching launch with this probability.

    Exactly one of ``count`` / ``at`` / ``probability`` is active; when
    none is given, ``count=1`` (fire once) is assumed.
    """

    kind: str
    op: str | None = None
    device: int | None = None
    iteration: int | None = None
    count: int | None = None
    at: int | None = None
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.op is not None and self.op not in LAUNCH_OPS:
            raise ValueError(
                f"op must be one of {LAUNCH_OPS}, got {self.op!r}"
            )
        if self.kind == "corrupt":
            if self.op not in (None, "tensor4"):
                raise ValueError(
                    "corrupt rules only apply to tensor4 launches "
                    f"(got op={self.op!r}); see the module fault model"
                )
            object.__setattr__(self, "op", "tensor4")
        triggers = [
            t for t in (self.count, self.at, self.probability) if t is not None
        ]
        if len(triggers) > 1:
            raise ValueError(
                "a rule takes at most one of count=/at=/p= "
                f"(got {self!r})"
            )
        if not triggers:
            object.__setattr__(self, "count", 1)
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.at is not None and self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"p must be in (0, 1], got {self.probability}"
            )
        if self.device is not None and self.device < 0:
            raise ValueError(f"device must be >= 0, got {self.device}")
        if self.iteration is not None and self.iteration < 0:
            raise ValueError(f"iter must be >= 0, got {self.iteration}")

    def matches(self, device_id: int, op: str, wi: int | None) -> bool:
        """Static filters only (trigger state lives in the injector)."""
        if self.op is not None and op != self.op:
            return False
        if self.device is not None and device_id != self.device:
            return False
        if self.iteration is not None and wi != self.iteration:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, validated injection configuration."""

    rules: tuple[FaultRule, ...]
    seed: int = 0

    @property
    def has_corruption(self) -> bool:
        return any(r.kind == "corrupt" for r in self.rules)

    @property
    def has_hang(self) -> bool:
        """True when any rule injects hangs (requires an armed watchdog)."""
        return any(r.kind == "hang" for r in self.rules)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``--inject-faults`` spec string into a :class:`FaultPlan`.

    Grammar: ``;``-separated clauses; each clause is either ``seed=N`` or
    ``kind[:key=value[,key=value...]]`` with keys ``op``, ``device``,
    ``iter``, ``count``, ``at``, ``p``.

    Raises:
        ValueError: on any malformed clause.  The message carries the
            1-based clause index and the offending clause text, and
            unknown/duplicate keys are rejected *per kind* with the
            kind's valid-key list — a typo'd key can never be silently
            dropped.
    """
    rules: list[FaultRule] = []
    seed = 0
    for index, clause in enumerate(spec.split(";"), start=1):
        clause = clause.strip()
        if not clause:
            continue

        def bad(reason: str) -> ValueError:
            return ValueError(
                f"bad fault clause {index} ({clause!r}): {reason}"
            )

        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError:
                raise bad("seed must be an integer") from None
            continue
        kind, _, args = clause.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise bad(
                f"unknown fault kind {kind!r} "
                f"(valid kinds: {', '.join(FAULT_KINDS)})"
            )
        valid_keys = KIND_KEYS[kind]
        kwargs: dict[str, object] = {}
        seen: set[str] = set()
        for item in filter(None, (a.strip() for a in args.split(","))):
            key, sep, value = item.partition("=")
            if not sep:
                raise bad(f"expected key=value, got {item!r}")
            key = key.strip()
            value = value.strip()
            if key not in valid_keys:
                raise bad(
                    f"unknown key {key!r} for kind {kind!r} "
                    f"(valid keys: {', '.join(valid_keys)})"
                )
            if key in seen:
                raise bad(f"duplicate key {key!r}")
            seen.add(key)
            try:
                if key in ("device", "count", "at"):
                    kwargs[key] = int(value)
                elif key == "iter":
                    kwargs["iteration"] = int(value)
                elif key == "p":
                    kwargs["probability"] = float(value)
                else:  # key == "op"
                    kwargs["op"] = value
            except ValueError:
                raise bad(
                    f"key {key!r} needs a numeric value, got {value!r}"
                ) from None
        try:
            rules.append(FaultRule(kind=kind, **kwargs))  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise bad(str(exc)) from None
    if not rules:
        raise ValueError(f"fault spec {spec!r} contains no rules")
    return FaultPlan(rules=tuple(rules), seed=seed)


@dataclass
class InjectionStats:
    """What the injector actually did (for injected == observed checks)."""

    transient: int = 0
    persistent: int = 0
    corrupt: int = 0
    hang: int = 0

    @property
    def total(self) -> int:
        return self.transient + self.persistent + self.corrupt + self.hang


class FaultInjector:
    """Deterministic runtime state of a :class:`FaultPlan`.

    One injector is shared by all of a search's devices; it keeps
    per-rule match counters, the per-device dead set (persistent faults)
    and the seeded PRNG for probabilistic triggers.  All decision state
    is mutated under one lock, so concurrent device worker threads see a
    single consistent schedule.

    The current outer iteration is tracked per device via
    :meth:`begin_iteration` (one worker thread per device, so a plain
    dict suffices under the lock).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = InjectionStats()
        self._lock = threading.Lock()
        self._rng = random.Random(plan.seed)
        self._matches = [0] * len(plan.rules)
        self._fired = [0] * len(plan.rules)
        self._dead: set[int] = set()
        self._context: dict[int, int | None] = {}

    # ------------------------------------------------------------------ #

    def begin_iteration(self, device_id: int, wi: int | None) -> None:
        """Declare the outer iteration ``device_id`` is about to execute."""
        with self._lock:
            self._context[device_id] = wi

    def current_iteration(self, device_id: int) -> int | None:
        with self._lock:
            return self._context.get(device_id)

    @property
    def dead_devices(self) -> set[int]:
        """Devices killed by a persistent rule so far."""
        with self._lock:
            return set(self._dead)

    # ------------------------------------------------------------------ #

    def on_launch(self, device_id: int, op: str) -> str | None:
        """Decide the fate of one launch.

        Returns:
            ``None`` (execute normally), ``"corrupt"`` (execute, then
            corrupt the output) or ``"hang"`` (stall the launch until the
            watchdog cancels it).

        Raises:
            DeviceFault: for transient faults and on every launch of a
                dead device.
        """
        with self._lock:
            wi = self._context.get(device_id)
            if device_id in self._dead:
                self.stats.persistent += 1
                raise DeviceFault(device_id, op, "persistent", wi)
            corrupt = False
            for idx, rule in enumerate(self.plan.rules):
                if not rule.matches(device_id, op, wi):
                    continue
                self._matches[idx] += 1
                if not self._triggered(idx, rule):
                    continue
                self._fired[idx] += 1
                if rule.kind == "persistent":
                    self._dead.add(device_id)
                    self.stats.persistent += 1
                    raise DeviceFault(device_id, op, "persistent", wi)
                if rule.kind == "transient":
                    self.stats.transient += 1
                    raise DeviceFault(device_id, op, "transient", wi)
                if rule.kind == "hang":
                    self.stats.hang += 1
                    return "hang"
                corrupt = True  # corrupt: flag and keep scanning
            if corrupt:
                self.stats.corrupt += 1
                return "corrupt"
        return None

    def _triggered(self, idx: int, rule: FaultRule) -> bool:
        # Callers hold self._lock.
        if rule.probability is not None:
            return self._rng.random() < rule.probability
        if rule.at is not None:
            return self._matches[idx] == rule.at
        assert rule.count is not None
        return self._fired[idx] < rule.count

    def corrupt_output(self, out: np.ndarray) -> np.ndarray:
        """Deterministically corrupt one cell of a corner array in place.

        The poisoned value is negative — impossible for a popcount — so
        round-level output validation is guaranteed to notice.
        """
        with self._lock:
            pos = self._rng.randrange(out.size)
        flat = out.reshape(-1)
        flat[pos] = -42
        return out


class FaultyGPU:
    """A :class:`VirtualGPU` whose launches pass through a fault injector
    and (optionally) a hang watchdog.

    Transparent proxy: everything except the launch methods (and
    :meth:`transfer_to_device`) delegates to the wrapped device, so
    metrics, spec, engine and ``device_id`` behave identically.  Each
    injected fault is also counted into the device's registry as
    ``epi4_faults_injected_total{device=...}``.

    When a :class:`~repro.core.watchdog.LaunchWatchdog` is attached,
    every launch runs under a deadline guard: a launch that overruns is
    *cancelled* — its result is discarded and :class:`DeviceFault`
    (``kind="hang"``) is raised instead, exactly once per watchdog trip.
    Injected ``hang`` faults stall cooperatively on the guard's cancel
    event until the watchdog trips them.  Either proxy concern works
    without the other: ``injector=None`` gives a pure deadline guard,
    ``watchdog=None`` pure injection.
    """

    def __init__(
        self,
        gpu: VirtualGPU,
        injector: FaultInjector | None = None,
        watchdog: "object | None" = None,
    ) -> None:
        self._gpu = gpu
        self._injector = injector
        self._watchdog = watchdog

    def __getattr__(self, name: str):
        return getattr(self._gpu, name)

    def __repr__(self) -> str:
        return f"FaultyGPU({self._gpu!r})"

    # ------------------------------------------------------------------ #

    def _gate(self, op: str) -> str | None:
        if self._injector is None:
            return None
        try:
            return self._injector.on_launch(self._gpu.device_id, op)
        except DeviceFault:
            self._gpu.count("epi4_faults_injected_total")
            raise

    def _current_wi(self) -> int | None:
        if self._injector is None:
            return None
        return self._injector.current_iteration(self._gpu.device_id)

    def _hang_fault(self, op: str, *, injected: bool) -> DeviceFault:
        if injected:
            # Only injector-scheduled hangs count toward faults_injected;
            # a real overrun cancelled by the watchdog is not an injection.
            self._gpu.count("epi4_faults_injected_total")
        return DeviceFault(self._gpu.device_id, op, "hang", self._current_wi())

    def _execute(self, op: str, fn):
        """Gate, guard and run one launch; returns ``(result, action)``."""
        action = self._gate(op)
        hang = action == "hang"
        watchdog = self._watchdog
        if watchdog is None:
            if hang:
                # Nothing would ever cancel the stall (no armed watchdog):
                # degrade the injected hang to an immediate hang fault.
                raise self._hang_fault(op, injected=True)
            return fn(), action
        with watchdog.guard(self._gpu.device_id, op) as ticket:
            out = ticket.stall() if hang else fn()
        if ticket.tripped:
            raise self._hang_fault(op, injected=hang)
        return out, action

    def transfer_to_device(self, nbytes: int) -> None:
        self._execute("transfer", lambda: self._gpu.transfer_to_device(nbytes))

    def launch_combine(self, planes, first_offset, second_offset, block_size):
        out, _ = self._execute(
            "combine",
            lambda: self._gpu.launch_combine(
                planes, first_offset, second_offset, block_size
            ),
        )
        return out

    def launch_pairwise(self, plane_dot_ops: int) -> None:
        self._execute("pairwPop", lambda: self._gpu.launch_pairwise(plane_dot_ops))

    def launch_tensor3(self, combined, class_planes, t_start, t_stop, block_size):
        out, _ = self._execute(
            "tensor3",
            lambda: self._gpu.launch_tensor3(
                combined, class_planes, t_start, t_stop, block_size
            ),
        )
        return out

    def launch_tensor3_batch(
        self, combined_list, class_planes, t_start, t_stop, block_size
    ):
        # One gate per fused launch: a batched launch fails (or survives)
        # as a unit, exactly like the hardware launch it models.
        out, _ = self._execute(
            "tensor3",
            lambda: self._gpu.launch_tensor3_batch(
                combined_list, class_planes, t_start, t_stop, block_size
            ),
        )
        return out

    def launch_tensor4(self, combined_wx, combined_yz, block_size):
        out, action = self._execute(
            "tensor4",
            lambda: self._gpu.launch_tensor4(combined_wx, combined_yz, block_size),
        )
        if action == "corrupt":
            self._gpu.count("epi4_faults_injected_total")
            out = self._injector.corrupt_output(out)
        return out

    def launch_tensor4_batch(self, combined_wx, combined_yz_list, block_size):
        outs, action = self._execute(
            "tensor4",
            lambda: self._gpu.launch_tensor4_batch(
                combined_wx, combined_yz_list, block_size
            ),
        )
        if action == "corrupt":
            # Corrupt the batch's first member: round-level validation of
            # the round it lands in catches it and re-executes degraded.
            self._gpu.count("epi4_faults_injected_total")
            outs[0] = self._injector.corrupt_output(
                np.ascontiguousarray(outs[0])
            )
        return outs
