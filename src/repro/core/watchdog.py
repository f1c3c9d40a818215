"""Per-launch hang watchdog: deadline enforcement for device launches.

The paper's exhaustive runs keep a GPU busy for hours; on real shared
clusters a kernel launch can simply *stop making progress* (driver hang,
pre-empted device, deadlocked collective) without ever raising.  A
watchdog turns that silent liveness failure back into the fail-fast
fault model the recovery layer (:mod:`repro.core.resilience`) already
handles: every launch runs under a deadline, and a launch that overruns
is **cancelled** — its result is discarded and the caller raises
:class:`~repro.device.faults.DeviceFault` (``kind="hang"``), which flows
through the ordinary retry → requeue → quarantine path.

Design
------

One :class:`LaunchWatchdog` is shared by all of a search's devices.  A
launch registers a :class:`LaunchTicket` (its deadline) on entry to
:meth:`LaunchWatchdog.guard` and unregisters on exit; a single daemon
monitor thread sleeps until the earliest outstanding deadline and *trips*
any ticket that is still registered past it.  Tripping is one-shot and
race-free under the watchdog lock:

* if the monitor trips a ticket first, the launching thread *always*
  observes ``ticket.tripped`` on guard exit and raises — one trip, one
  ``hang`` fault (the conservation law the property suite checks).  The
  monitor reports the trip through ``on_trip`` *before* it releases the
  launch, so the trip is on the books before its fault is raised;
* if the launch finishes and unregisters first, the monitor can no
  longer trip it — a completed launch is never retroactively failed.

Injected ``hang`` faults (see :mod:`repro.device.faults`) stall
cooperatively via :meth:`LaunchTicket.stall`, which blocks on the
ticket's cancel event until the monitor trips it — modelling a kernel
that never returns, cancelled by deadline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator


class LaunchTicket:
    """One in-flight launch registered with the watchdog."""

    __slots__ = ("device_id", "op", "deadline", "cancelled", "tripped")

    def __init__(self, device_id: int, op: str, deadline: float) -> None:
        self.device_id = device_id
        self.op = op
        self.deadline = deadline
        self.cancelled = threading.Event()
        self.tripped = False

    def stall(self) -> None:
        """Block until the watchdog cancels this launch (injected hangs).

        Models a kernel that never completes on its own.  The wait is
        bounded by a generous fallback (so a broken monitor thread can
        never wedge the test suite); on fallback the ticket still reads
        as tripped so the caller raises the hang fault it owes.
        """
        if not self.cancelled.wait(timeout=60.0):
            self.tripped = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "tripped" if self.tripped else "armed"
        return (
            f"LaunchTicket(device={self.device_id}, op={self.op!r}, {state})"
        )


class LaunchWatchdog:
    """Deadline monitor for device launches.

    Args:
        deadline_ms: per-launch wall-clock budget.  Launches (or injected
            stalls) still running past it are tripped.
        on_trip: optional callback ``(device_id, op) -> None`` fired
            from the monitor thread once per trip, before the tripped
            launch is released — the search wires metrics
            (``epi4_watchdog_trips_total``) and FaultLog incidents here.

    The monitor thread starts lazily on the first :meth:`guard` and is a
    daemon; :meth:`close` shuts it down deterministically (used by the
    search's ``finally``).
    """

    def __init__(
        self,
        deadline_ms: float,
        on_trip: Callable[[int, str], None] | None = None,
    ) -> None:
        if deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        self.deadline_ms = float(deadline_ms)
        self._on_trip = on_trip
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._active: set[LaunchTicket] = set()
        self._trips = 0
        self._closed = False
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #

    @property
    def trips(self) -> int:
        """Total launches cancelled by deadline so far."""
        with self._lock:
            return self._trips

    @contextmanager
    def guard(self, device_id: int, op: str) -> Iterator[LaunchTicket]:
        """Run one launch under the deadline.

        The caller must check ``ticket.tripped`` after the block and
        discard the result / raise ``DeviceFault("hang")`` when set —
        :class:`~repro.device.faults.FaultyGPU` does exactly this.
        """
        ticket = LaunchTicket(
            device_id, op, time.monotonic() + self.deadline_ms / 1000.0
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("watchdog is closed")
            self._active.add(ticket)
            self._ensure_monitor_locked()
            self._wake.notify_all()
        try:
            yield ticket
        finally:
            with self._lock:
                # A ticket the monitor tripped has already left the set.
                monitor_tripped = ticket not in self._active
                self._active.discard(ticket)
            if monitor_tripped:
                # Released once the monitor has reported the trip.
                ticket.cancelled.wait(timeout=60.0)

    def close(self) -> None:
        """Stop the monitor thread (idempotent)."""
        with self._lock:
            self._closed = True
            # Release any cooperative stalls still waiting: nothing will
            # monitor them past this point.
            for ticket in self._active:
                if not ticket.tripped:
                    ticket.tripped = True
                    ticket.cancelled.set()
            self._wake.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------ #

    def _ensure_monitor_locked(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._monitor, name="epi4-watchdog", daemon=True
            )
            self._thread.start()

    def _monitor(self) -> None:
        while True:
            fire: list[LaunchTicket] = []
            with self._lock:
                if self._closed:
                    return
                now = time.monotonic()
                expired = [t for t in self._active if t.deadline <= now]
                for ticket in expired:
                    ticket.tripped = True
                    self._active.discard(ticket)
                    self._trips += 1
                    fire.append(ticket)
                if not expired:
                    if self._active:
                        horizon = min(t.deadline for t in self._active) - now
                        self._wake.wait(timeout=max(horizon, 0.001))
                    else:
                        # Idle: park until a new guard registers or close().
                        self._wake.wait(timeout=1.0)
            for ticket in fire:
                try:
                    if self._on_trip is not None:
                        self._on_trip(ticket.device_id, ticket.op)
                finally:
                    ticket.cancelled.set()
