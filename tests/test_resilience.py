"""Unit tests for retry/backoff policy, fault log, and the resilient queue."""

import math
import random
import threading

import pytest

from repro.core.resilience import (
    FaultLog,
    ResilientWorkQueue,
    RetryPolicy,
)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.max_attempts == 3
        assert policy.quarantine_after == 2

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            backoff_base_ms=10.0, backoff_cap_ms=35.0, jitter=0.0
        )
        rng = random.Random(0)
        waits = [policy.backoff_seconds(a, rng) for a in range(4)]
        assert waits == [0.010, 0.020, 0.035, 0.035]

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base_ms=100.0, jitter=0.25)

        def draws():
            rng = random.Random(11)
            return [policy.backoff_seconds(0, rng) for _ in range(20)]

        first, second = draws(), draws()
        assert first == second
        for w in first:
            assert 0.075 <= w <= 0.125
        assert len(set(first)) > 1  # jitter actually varies

    def test_zero_base_means_no_wait(self):
        policy = RetryPolicy(backoff_base_ms=0.0, jitter=0.0)
        assert policy.backoff_seconds(5, random.Random(0)) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_ms": -1.0},
            {"backoff_base_ms": 10.0, "backoff_cap_ms": 5.0},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"quarantine_after": 0},
            {"backoff_base_ms": math.nan},
            {"backoff_base_ms": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(-1, random.Random(0))


class TestFaultLog:
    def test_totals_roll_up_across_devices(self):
        log = FaultLog.for_devices(3)
        log.record_attempt(0)
        log.record_failure(0, 1, "tensor4", "transient")
        log.record_retry(0, 1, "tensor4", "transient", wait=0.010)
        log.record_attempt(2)
        log.record_failure(2, 4, "combine", "persistent")
        assert log.record_requeue(2, 4, "combine", "persistent") == 1
        log.record_quarantine(2, wi=4)
        log.record_degraded_round(1, 0, "corrupt")

        assert log.total_failures == 2
        assert log.total_retries == 1
        assert log.total_requeues == 1
        assert log.total_degraded_rounds == 1
        assert log.total_backoff_seconds == pytest.approx(0.010)
        assert log.quarantined_devices == [2]
        assert log.any_activity

    def test_success_resets_consecutive_exhausted(self):
        log = FaultLog.for_devices(1)
        assert log.record_requeue(0, 0, "tensor4", "transient") == 1
        log.record_success(0)
        assert log.record_requeue(0, 1, "tensor4", "transient") == 1
        assert log.record_requeue(0, 2, "tensor4", "transient") == 2

    def test_fresh_log_has_no_activity(self):
        log = FaultLog.for_devices(2)
        assert not log.any_activity
        # attempts alone (no failures) do not count as activity
        log.record_attempt(0)
        assert not log.any_activity

    def test_summary_lines_mark_quarantine(self):
        log = FaultLog.for_devices(2)
        log.record_quarantine(1)
        lines = log.summary_lines()
        assert len(lines) == 2
        assert "healthy" in lines[0]
        assert "QUARANTINED" in lines[1]

    def test_incident_trail_records_actions(self):
        log = FaultLog.for_devices(1)
        log.record_retry(0, 3, "tensor4", "transient", wait=0.002)
        log.record_requeue(0, 3, "tensor4", "transient")
        log.record_quarantine(0, wi=3)
        actions = [i.action for i in log.incidents]
        assert actions == ["retry", "requeue", "quarantine"]
        assert all(i.device_id == 0 for i in log.incidents)


class TestResilientWorkQueue:
    def test_single_worker_drains_in_order(self):
        q = ResilientWorkQueue([3, 1, 2])
        q.register(0)
        seen = []
        while (wi := q.get(0)) is not None:
            seen.append(wi)
            q.done(wi)
        assert seen == [3, 1, 2]

    def test_requeue_excludes_surrendering_device(self):
        q = ResilientWorkQueue([7])
        q.register(0)
        q.register(1)
        wi = q.get(0)
        assert wi == 7
        q.requeue(7, exclude_device=0)
        assert q.excluded_devices(7) == {0}
        # Device 1 picks it up; device 0 never gets it back.
        assert q.get(1) == 7
        q.done(7)
        assert q.get(0) is None
        assert q.get(1) is None

    def test_hands_back_iteration_every_device_surrendered(self):
        q = ResilientWorkQueue([0, 1])
        q.register(0)
        q.register(1)
        assert q.get(0) == 0
        q.requeue(0, exclude_device=0)
        # Device 1 has not surrendered 0 yet: device 0 moves on first.
        assert q.get(0) == 1
        q.done(1)
        assert q.get(1) == 0
        q.requeue(0, exclude_device=1)
        # Every registered device surrendered it: whoever asks gets it.
        assert q.excluded_devices(0) == {0, 1}
        assert q.get(0) == 0
        q.requeue(0, exclude_device=0)
        assert q.get(1) == 0
        q.done(0)
        assert q.get(0) is None
        assert not q.unfinished

    def test_lone_device_gets_its_surrendered_iteration_back(self):
        q = ResilientWorkQueue([4])
        q.register(0)
        assert q.get(0) == 4
        q.requeue(4, exclude_device=0)
        assert q.get(0) == 4

    def test_unfinished_once_every_worker_unregisters(self):
        q = ResilientWorkQueue([0, 1])
        q.register(0)
        q.register(1)
        assert q.get(0) == 0
        q.requeue(0, exclude_device=0)
        q.unregister(0)  # quarantined
        q.unregister(1)  # quarantined
        assert q.unfinished

    def test_close_releases_blocked_workers(self):
        # A worker that dies mid-iteration leaves its slot in flight;
        # closing the queue must still release every waiter.
        q = ResilientWorkQueue([0])
        q.register(0)
        q.register(1)
        assert q.get(0) == 0
        result = {}
        t = threading.Thread(target=lambda: result.update(wi=q.get(1)))
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive()
        q.close()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert result["wi"] is None

    def test_excluded_worker_waits_for_in_flight_work(self):
        # Device 0 is excluded from the only pending iteration, but
        # device 1 has work in flight that might be requeued — get(0)
        # must block until that resolves, then return None.
        q = ResilientWorkQueue([0, 1])
        q.register(0)
        q.register(1)
        assert q.get(1) == 0
        assert q.get(0) == 1
        q.requeue(1, exclude_device=0)

        result = {}

        def waiter():
            result["wi"] = q.get(0)

        t = threading.Thread(target=waiter)
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive()  # still blocked on device 1's in-flight work
        assert q.get(1) == 1  # device 1 takes the requeued iteration
        q.done(1)
        q.done(0)
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert result["wi"] is None

    def test_concurrent_workers_process_everything_once(self):
        n = 200
        q = ResilientWorkQueue(range(n))
        done: list[int] = []
        lock = threading.Lock()

        def worker(device_id):
            q.register(device_id)
            while (wi := q.get(device_id)) is not None:
                with lock:
                    done.append(wi)
                q.done(wi)
            q.unregister(device_id)

        threads = [
            threading.Thread(target=worker, args=(d,)) for d in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert sorted(done) == list(range(n))

    def test_requeue_survives_worker_attrition(self):
        # Worker 0 fails every iteration; worker 1 picks up the pieces.
        n = 10
        q = ResilientWorkQueue(range(n))
        q.register(0)
        q.register(1)
        done: list[int] = []

        def flaky():
            while (wi := q.get(0)) is not None:
                q.requeue(wi, exclude_device=0)
            q.unregister(0)

        def steady():
            while (wi := q.get(1)) is not None:
                done.append(wi)
                q.done(wi)
            q.unregister(1)

        t0 = threading.Thread(target=flaky)
        t1 = threading.Thread(target=steady)
        t0.start()
        t1.start()
        t0.join(timeout=10.0)
        t1.join(timeout=10.0)
        assert not t0.is_alive() and not t1.is_alive()
        assert sorted(done) == list(range(n))
