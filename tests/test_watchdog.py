"""Unit tests for the per-launch hang watchdog.

The contract under test is the trip/unregister race-freedom the search's
conservation property relies on: a launch that finishes before its
deadline is never retroactively tripped, a launch that overruns is
tripped exactly once, and every trip is observable both on the ticket
and through the ``on_trip`` callback.
"""

import threading
import time

import pytest

from repro.core.watchdog import LaunchTicket, LaunchWatchdog


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_non_positive_deadline_rejected(self, bad):
        with pytest.raises(ValueError, match="deadline_ms"):
            LaunchWatchdog(bad)

    def test_guard_after_close_rejected(self):
        dog = LaunchWatchdog(50.0)
        dog.close()
        with pytest.raises(RuntimeError, match="closed"):
            with dog.guard(0, "tensor4"):
                pass


class TestHappyPath:
    def test_fast_launch_is_never_tripped(self):
        dog = LaunchWatchdog(10_000.0)
        try:
            for _ in range(20):
                with dog.guard(0, "tensor4") as ticket:
                    pass
                assert not ticket.tripped
            assert dog.trips == 0
        finally:
            dog.close()

    def test_guard_unregisters_on_exception(self):
        dog = LaunchWatchdog(10_000.0)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                with dog.guard(0, "combine"):
                    raise RuntimeError("boom")
            # The ticket left the active set: waiting past nothing.
            assert dog.trips == 0
        finally:
            dog.close()


class TestTripping:
    def test_overrunning_launch_trips_once(self):
        trips = []
        dog = LaunchWatchdog(30.0, on_trip=lambda d, op: trips.append((d, op)))
        try:
            with dog.guard(3, "tensor4") as ticket:
                deadline = time.monotonic() + 5.0
                while not ticket.tripped and time.monotonic() < deadline:
                    time.sleep(0.005)
            assert ticket.tripped
            assert dog.trips == 1
            # The callback fired exactly once, with the launch identity,
            # before the guard released the launch.
            assert trips == [(3, "tensor4")]
        finally:
            dog.close()

    def test_injected_stall_is_cancelled_at_deadline(self):
        dog = LaunchWatchdog(30.0)
        try:
            t0 = time.monotonic()
            with dog.guard(0, "tensor4") as ticket:
                ticket.stall()
            waited = time.monotonic() - t0
            assert ticket.tripped
            assert ticket.cancelled.is_set()
            # Cancelled by the monitor, not by stall()'s 60 s fallback.
            assert waited < 10.0
            assert dog.trips == 1
        finally:
            dog.close()

    def test_concurrent_stalls_each_trip_exactly_once(self):
        trips = []
        lock = threading.Lock()

        def on_trip(device_id, op):
            with lock:
                trips.append(device_id)

        dog = LaunchWatchdog(30.0, on_trip=on_trip)
        tickets = []

        def stalled(device_id):
            with dog.guard(device_id, "tensor4") as ticket:
                ticket.stall()
            tickets.append(ticket)

        try:
            threads = [
                threading.Thread(target=stalled, args=(d,)) for d in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert all(t.tripped for t in tickets)
            assert dog.trips == 4
            deadline = time.monotonic() + 2.0
            while len(trips) < 4 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert sorted(trips) == [0, 1, 2, 3]
        finally:
            dog.close()


class TestClose:
    def test_close_is_idempotent(self):
        dog = LaunchWatchdog(50.0)
        with dog.guard(0, "combine"):
            pass
        dog.close()
        dog.close()

    def test_close_releases_pending_stalls(self):
        dog = LaunchWatchdog(60_000.0)  # deadline far away
        released = threading.Event()

        def stalled():
            with dog.guard(0, "tensor4") as ticket:
                ticket.stall()
            assert ticket.tripped
            released.set()

        worker = threading.Thread(target=stalled)
        worker.start()
        time.sleep(0.05)  # let the stall register
        dog.close()
        assert released.wait(timeout=5.0)
        worker.join(timeout=5.0)


class TestTicketRepr:
    def test_states(self):
        ticket = LaunchTicket(1, "tensor4", deadline=0.0)
        assert "armed" in repr(ticket)
        ticket.tripped = True
        assert "tripped" in repr(ticket)
