"""Retry/backoff, device quarantine and failure observability.

The recovery half of the resilience story (the fault *injection* half is
:mod:`repro.device.faults`).  The search treats one outer (``Wi``)
iteration as its unit of recovery — the same unit §3.6 uses for
multi-GPU work division and :mod:`repro.core.journal` uses for
resume.  A ``Wi`` iteration is idempotent (it reads immutable operands
and produces a candidate list) and the global reducer is merge-only, so
re-executing a failed iteration — on the same device or any other —
cannot change the final result: fault-tolerant runs stay **bit-identical**
to fault-free ones.

State machine per device::

    healthy --fault--> retrying --(success)--> healthy
                 |         |
                 |         +--(retries exhausted)--> iteration requeued,
                 |                                   other devices first
                 +--(quarantine_after consecutive
                     exhausted iterations)---------> quarantined (worker
                                                     exits; device takes
                                                     no further work)

An iteration every device has surrendered goes back to whichever device
asks next, so a lone device retries it until it is quarantined.  Only a
commit resets a quarantine streak and commits are bounded, so this ends.
A search aborts (:class:`SearchAbortedError`) only when every device is
quarantined with work left.

This module is deliberately search-agnostic: :class:`RetryPolicy`,
:class:`FaultLog` and :class:`ResilientWorkQueue` know nothing about
epistasis; :mod:`repro.core.search` wires them to the device loop.
"""

from __future__ import annotations

import math
import random
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


class SearchAbortedError(RuntimeError):
    """No healthy device can make further progress on the search."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attributes:
        max_retries: additional attempts after the first failure of an
            iteration *on the same device* (0 = fail fast to requeue).
        backoff_base_ms: wait before the first retry; doubles per retry.
        backoff_cap_ms: upper bound on any single wait.
        jitter: fractional jitter; each wait is scaled by a factor drawn
            uniformly from ``[1 - jitter, 1 + jitter]`` (seeded PRNG, so
            runs are reproducible).
        quarantine_after: consecutive *exhausted* iterations (failed all
            retries) before the device is quarantined.
    """

    max_retries: int = 2
    backoff_base_ms: float = 10.0
    backoff_cap_ms: float = 5000.0
    jitter: float = 0.1
    quarantine_after: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (math.isfinite(self.backoff_base_ms) and self.backoff_base_ms >= 0):
            raise ValueError(
                "backoff_base_ms must be finite and >= 0, "
                f"got {self.backoff_base_ms}"
            )
        if self.backoff_cap_ms < self.backoff_base_ms:
            raise ValueError(
                f"backoff_cap_ms ({self.backoff_cap_ms}) must be >= "
                f"backoff_base_ms ({self.backoff_base_ms})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts per iteration per device (first try + retries)."""
        return self.max_retries + 1

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        """Wait before retry ``attempt`` (0-based): capped exponential
        ``base * 2^attempt``, jittered by ``rng``."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        base = min(self.backoff_base_ms * (2.0 ** attempt), self.backoff_cap_ms)
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base / 1000.0


@dataclass
class FaultIncident:
    """One observed failure/recovery event (for the per-run audit trail).

    Attributes:
        device_id: device involved.
        wi: outer iteration (``None`` for pre-loop faults, e.g. transfer).
        op: failing kernel (``"round"`` for degraded re-executions).
        kind: fault kind as reported by the exception / detector.
        action: what the resilience layer did — ``"retry"``,
            ``"requeue"``, ``"quarantine"``, ``"degraded"``,
            ``"watchdog"`` (a launch cancelled by deadline) or
            ``"abort"``.
        wait_seconds: backoff wait preceding a retry (0 otherwise).
    """

    device_id: int
    wi: int | None
    op: str
    kind: str
    action: str
    wait_seconds: float = 0.0


@dataclass
class DeviceFaultLog:
    """Per-device resilience counters.

    Attributes:
        device_id: which device.
        attempts: iteration attempts started.
        failures: attempts that raised a device fault.
        retries: failed attempts retried on this device.
        requeues: iterations surrendered to other devices after
            exhausting local retries.
        backoff_waits: number of backoff sleeps.
        backoff_seconds: total time spent in backoff.
        degraded_rounds: rounds re-executed through the independent
            bitwise path after corruption / self-check failure.
        quarantined: whether the device is quarantined.
        consecutive_exhausted: current run of exhausted iterations
            (internal quarantine trigger state).
        failures_by_kind: failure count per fault kind (``transient``,
            ``hang``, ...) — the watchdog conservation law compares the
            ``hang`` entry against trip counts.
        watchdog_trips: launches on this device cancelled by deadline.
    """

    device_id: int
    attempts: int = 0
    failures: int = 0
    retries: int = 0
    requeues: int = 0
    backoff_waits: int = 0
    backoff_seconds: float = 0.0
    degraded_rounds: int = 0
    quarantined: bool = False
    consecutive_exhausted: int = 0
    failures_by_kind: dict = field(default_factory=dict)
    watchdog_trips: int = 0


@dataclass
class FaultLog:
    """Thread-safe, per-device failure observability for one search run.

    Surfaces in :class:`~repro.core.search.SearchResult.fault_log` and in
    the CLI/text report.  ``injected faults == observed handling`` checks
    compare :class:`~repro.device.faults.InjectionStats` against
    :attr:`total_failures` + :attr:`total_degraded_rounds` (every injected
    launch fault surfaces as exactly one failed iteration attempt; every
    injected corruption as exactly one degraded round).
    """

    devices: list[DeviceFaultLog]
    incidents: list[FaultIncident] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    @classmethod
    def for_devices(cls, n_devices: int) -> "FaultLog":
        return cls(devices=[DeviceFaultLog(i) for i in range(n_devices)])

    # ------------------------------------------------------------------ #
    # Recording

    def record_attempt(self, device_id: int) -> None:
        with self._lock:
            self.devices[device_id].attempts += 1

    def record_failure(
        self, device_id: int, wi: int | None, op: str, kind: str
    ) -> None:
        with self._lock:
            dev = self.devices[device_id]
            dev.failures += 1
            dev.failures_by_kind[kind] = dev.failures_by_kind.get(kind, 0) + 1

    def record_retry(
        self, device_id: int, wi: int | None, op: str, kind: str, wait: float
    ) -> None:
        with self._lock:
            dev = self.devices[device_id]
            dev.retries += 1
            dev.backoff_waits += 1
            dev.backoff_seconds += wait
            self.incidents.append(
                FaultIncident(device_id, wi, op, kind, "retry", wait)
            )

    def record_success(self, device_id: int) -> None:
        with self._lock:
            self.devices[device_id].consecutive_exhausted = 0

    def record_requeue(
        self, device_id: int, wi: int, op: str, kind: str
    ) -> int:
        """Record an exhausted iteration; returns the device's updated
        consecutive-exhausted count (the quarantine trigger)."""
        with self._lock:
            dev = self.devices[device_id]
            dev.requeues += 1
            dev.consecutive_exhausted += 1
            self.incidents.append(
                FaultIncident(device_id, wi, op, kind, "requeue")
            )
            return dev.consecutive_exhausted

    def record_quarantine(self, device_id: int, wi: int | None = None) -> None:
        with self._lock:
            self.devices[device_id].quarantined = True
            self.incidents.append(
                FaultIncident(device_id, wi, "device", "persistent", "quarantine")
            )

    def record_degraded_round(
        self, device_id: int, wi: int | None, reason: str
    ) -> None:
        with self._lock:
            self.devices[device_id].degraded_rounds += 1
            self.incidents.append(
                FaultIncident(device_id, wi, "round", reason, "degraded")
            )

    def record_watchdog_trip(self, device_id: int, op: str) -> None:
        """A launch overran its deadline and was cancelled.

        Called from the watchdog monitor thread; the iteration context is
        unknown there (``wi=None``), the matching ``hang`` failure
        carries it.
        """
        with self._lock:
            self.devices[device_id].watchdog_trips += 1
            self.incidents.append(
                FaultIncident(device_id, None, op, "hang", "watchdog")
            )

    # ------------------------------------------------------------------ #
    # Aggregates

    @property
    def total_failures(self) -> int:
        with self._lock:
            return sum(d.failures for d in self.devices)

    @property
    def total_retries(self) -> int:
        with self._lock:
            return sum(d.retries for d in self.devices)

    @property
    def total_requeues(self) -> int:
        with self._lock:
            return sum(d.requeues for d in self.devices)

    @property
    def total_degraded_rounds(self) -> int:
        with self._lock:
            return sum(d.degraded_rounds for d in self.devices)

    @property
    def total_watchdog_trips(self) -> int:
        with self._lock:
            return sum(d.watchdog_trips for d in self.devices)

    def failures_by_kind(self) -> dict:
        """Failure counts summed over devices, keyed by fault kind."""
        with self._lock:
            totals: dict = {}
            for d in self.devices:
                for kind, n in d.failures_by_kind.items():
                    totals[kind] = totals.get(kind, 0) + n
            return totals

    def incident_count(self, action: str) -> int:
        """Number of recorded incidents with the given action."""
        with self._lock:
            return sum(1 for i in self.incidents if i.action == action)

    @property
    def total_backoff_seconds(self) -> float:
        with self._lock:
            return sum(d.backoff_seconds for d in self.devices)

    @property
    def quarantined_devices(self) -> list[int]:
        with self._lock:
            return [d.device_id for d in self.devices if d.quarantined]

    @property
    def any_activity(self) -> bool:
        """True iff anything fault-related happened during the run."""
        with self._lock:
            return any(
                d.failures
                or d.degraded_rounds
                or d.quarantined
                or d.watchdog_trips
                for d in self.devices
            )

    def export_metrics(self, registry: MetricsRegistry) -> None:
        """Mirror resilience accounting into a
        :class:`~repro.obs.metrics.MetricsRegistry`: per-device
        attempt/failure/retry/requeue/degraded counters (labeled
        ``device``), incident totals by action, and backoff time."""
        with self._lock:
            for d in self.devices:
                dev = str(d.device_id)
                registry.inc("epi4_resilience_attempts_total", d.attempts, device=dev)
                registry.inc("epi4_resilience_failures_total", d.failures, device=dev)
                registry.inc("epi4_resilience_retries_total", d.retries, device=dev)
                registry.inc("epi4_resilience_requeues_total", d.requeues, device=dev)
                registry.inc(
                    "epi4_resilience_degraded_rounds_total",
                    d.degraded_rounds,
                    device=dev,
                )
                registry.inc(
                    "epi4_resilience_backoff_seconds_total",
                    d.backoff_seconds,
                    device=dev,
                )
                registry.inc(
                    "epi4_watchdog_trips_total", d.watchdog_trips, device=dev
                )
            actions: dict[str, int] = {}
            for incident in self.incidents:
                actions[incident.action] = actions.get(incident.action, 0) + 1
        for action, count in sorted(actions.items()):
            registry.inc(
                "epi4_resilience_incidents_total", count, action=action
            )

    def summary_lines(self) -> list[str]:
        """Human-readable per-device summary (report / CLI)."""
        with self._lock:
            lines = []
            for d in self.devices:
                state = "QUARANTINED" if d.quarantined else "healthy"
                line = (
                    f"device {d.device_id}: {state}; "
                    f"{d.attempts} attempts, {d.failures} failures, "
                    f"{d.retries} retries ({d.backoff_seconds * 1e3:.1f} ms "
                    f"backoff), {d.requeues} requeues, "
                    f"{d.degraded_rounds} degraded rounds"
                )
                if d.watchdog_trips:
                    line += f", {d.watchdog_trips} watchdog trips"
                lines.append(line)
            return lines


class ResilientWorkQueue:
    """A shared outer-iteration queue that survives worker attrition.

    - :meth:`requeue` puts a failed iteration back.  The surrendering
      device is excluded from it while some registered device has not
      surrendered it yet; once every registered device has, it goes to
      whichever device asks next.
    - :meth:`get` blocks while the pending work is excluded for the
      asking device or another worker still has an iteration in flight
      (it might be requeued), which is what guarantees no work is lost
      when a device fails mid-iteration.
    - :meth:`close` stops handing out work, so a worker that dies of a
      non-device error cannot leave the others blocked.

    Register every worker before any worker starts: eligibility is
    judged against the registered set.  A worker that quarantines
    unregisters; if all do with work left, :attr:`unfinished` stays true.
    """

    def __init__(self, iterations: Iterable[int]) -> None:
        self._pending: deque[int] = deque(iterations)
        self._excluded: dict[int, set[int]] = {}
        self._workers: set[int] = set()
        self._in_flight = 0
        self._closed = False
        self._cond = threading.Condition()

    @property
    def unfinished(self) -> bool:
        """Work remains pending or in flight (the executor's completeness
        guard after every worker has exited)."""
        with self._cond:
            return bool(self._pending or self._in_flight)

    def register(self, device_id: int) -> None:
        with self._cond:
            self._workers.add(device_id)

    def unregister(self, device_id: int) -> None:
        with self._cond:
            self._workers.discard(device_id)
            self._cond.notify_all()

    def excluded_devices(self, wi: int) -> set[int]:
        with self._cond:
            return set(self._excluded.get(wi, ()))

    # ------------------------------------------------------------------ #

    def get(self, device_id: int) -> int | None:
        """Next iteration this device may run, in queue order, or
        ``None`` once the search is complete or the queue is closed."""
        with self._cond:
            while not self._closed:
                for wi in self._pending:
                    excluded = self._excluded.get(wi, set())
                    if device_id not in excluded or self._workers <= excluded:
                        self._pending.remove(wi)
                        self._in_flight += 1
                        return wi
                if not self._pending and self._in_flight == 0:
                    return None
                self._cond.wait()
            return None

    def done(self, wi: int) -> None:
        """The iteration committed; release its in-flight slot."""
        with self._cond:
            self._in_flight -= 1
            self._cond.notify_all()

    def requeue(self, wi: int, exclude_device: int) -> None:
        """Return a failed iteration to the queue, other devices first."""
        with self._cond:
            self._excluded.setdefault(wi, set()).add(exclude_device)
            self._pending.append(wi)
            self._in_flight -= 1
            self._cond.notify_all()

    def close(self) -> None:
        """Hand out no further work: every later :meth:`get` returns
        ``None``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
