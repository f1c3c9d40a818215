"""Acceptance tests: searches under injected faults are bit-identical.

The contract (ISSUE acceptance criteria): with fault injection enabled —
transient faults, a persistent device failure, and forced self-check
degradation — :meth:`Epi4TensorSearch.run` returns bit-identical
``top_solutions`` to the fault-free baseline across both engines, and the
:class:`FaultLog` accounts for every injected fault.  A search with
all-but-one device quarantined still completes; a resume from a journal
with a torn tail recovers every durably committed ``Wi`` iteration.  The
bit-identity tests also check the faulty run against the independent
brute-force oracle (:func:`tests.helpers.brute_force_topk`), which shares
no code with the tensor path.

The whole suite is marked ``faults`` so CI can replay it under a seed
matrix (``EPI4TENSOR_FAULT_SEED``).
"""

import os
import threading

import pytest

from repro.core.journal import RoundJournal, _frame
from repro.core.resilience import SearchAbortedError
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from tests.helpers import assert_matches_oracle, brute_force_topk, cut_journal

pytestmark = pytest.mark.faults

#: CI replays this suite under several seeds; every seed must pass.
FAULT_SEED = int(os.environ.get("EPI4TENSOR_FAULT_SEED", "0"))


def _dataset(n_snps=8, n_samples=96, seed=5):
    return generate_random_dataset(n_snps, n_samples, seed=seed)


def _solutions(result):
    return [(s.score, s.packed) for s in result.top_solutions]


def _run(dataset, *, n_gpus=1, **config_kwargs):
    config_kwargs.setdefault("block_size", 4)
    config_kwargs.setdefault("top_k", 3)
    config_kwargs.setdefault("backoff_base_ms", 0.0)  # keep tests fast
    search = Epi4TensorSearch(
        dataset, SearchConfig(**config_kwargs), n_gpus=n_gpus
    )
    return search, search.run()


def _run_bounded(search, timeout=60.0):
    """Run ``search`` on a daemon thread and return what it raised
    (``None`` on success); fail if it is still running after ``timeout``
    seconds instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            search.run()
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "search neither finished nor aborted"
    return outcome.get("error")


class TestBitIdenticalUnderFaults:
    @pytest.mark.parametrize("engine_kind", ["and_popc", "xor_popc"])
    def test_transient_faults_all_engines_and_partitions(self, engine_kind):
        # The outer-loop split is the only partition scheme.
        ds = _dataset()
        _, baseline = _run(ds, engine_kind=engine_kind)
        spec = f"transient:op=tensor4,count=3;seed={FAULT_SEED}"
        search, faulty = _run(
            ds,
            engine_kind=engine_kind,
            inject_faults=spec,
            max_retries=3,
        )
        assert _solutions(faulty) == _solutions(baseline)
        assert_matches_oracle(faulty, brute_force_topk(ds, 3))
        assert faulty.fault_log.total_failures == 3
        assert faulty.fault_log.total_retries >= 3

    def test_persistent_device_failure_quarantines_and_matches(self):
        ds = _dataset(12, 96)
        _, baseline = _run(ds, n_gpus=2)
        spec = f"persistent:device=1,at=3;seed={FAULT_SEED}"
        search, faulty = _run(
            ds,
            n_gpus=2,
            inject_faults=spec,
            max_retries=1,
            quarantine_after=1,
        )
        assert _solutions(faulty) == _solutions(baseline)
        assert_matches_oracle(faulty, brute_force_topk(ds, 3))
        assert faulty.fault_log.quarantined_devices == [1]
        assert search.cluster.quarantined == {1}
        assert faulty.fault_log.total_requeues >= 1

    @pytest.mark.parametrize("selfcheck", [False, True])
    def test_corruption_degrades_round_and_matches(self, selfcheck):
        ds = _dataset()
        _, baseline = _run(ds, selfcheck=selfcheck)
        spec = f"corrupt:at=1;seed={FAULT_SEED}"
        search, faulty = _run(
            ds, selfcheck=selfcheck, inject_faults=spec
        )
        assert _solutions(faulty) == _solutions(baseline)
        assert_matches_oracle(faulty, brute_force_topk(ds, 3))
        assert faulty.fault_log.total_degraded_rounds == 1
        # Silent corruption never surfaces as a launch *failure*.
        assert faulty.fault_log.total_failures == 0

    def test_probabilistic_faults_seeded_from_environment(self):
        ds = _dataset()
        _, baseline = _run(ds, n_gpus=2)
        spec = f"transient:op=tensor4,p=0.05;seed={FAULT_SEED}"
        search, faulty = _run(
            ds,
            n_gpus=2,
            inject_faults=spec,
            max_retries=6,
            quarantine_after=50,
        )
        assert _solutions(faulty) == _solutions(baseline)
        assert_matches_oracle(faulty, brute_force_topk(ds, 3))
        # Deterministic per seed: a replay injects the same fault count.
        search2, faulty2 = _run(
            ds,
            n_gpus=2,
            inject_faults=spec,
            max_retries=6,
            quarantine_after=50,
        )
        assert search2._injector.stats.total == search._injector.stats.total
        assert _solutions(faulty2) == _solutions(baseline)


class TestFaultAccounting:
    def test_every_injected_fault_is_accounted(self):
        ds = _dataset(12, 96)
        spec = (
            "transient:op=tensor4,count=2;"
            "corrupt:at=1;"
            f"persistent:device=1,at=20;seed={FAULT_SEED}"
        )
        search, result = _run(
            ds,
            n_gpus=2,
            inject_faults=spec,
            max_retries=2,
            quarantine_after=1,
        )
        stats = search._injector.stats
        log = result.fault_log
        # Every raised launch fault surfaces as one recorded failure.
        assert stats.transient + stats.persistent == log.total_failures
        # Every silent corruption is caught and lands in a degraded round.
        assert stats.corrupt == 1
        assert log.total_degraded_rounds == 1
        # Device counters tally every injection (raised or silent).
        assert result.metrics.total("epi4_faults_injected_total") == stats.total
        assert log.any_activity

    def test_fault_free_run_reports_no_activity(self):
        ds = _dataset()
        search, result = _run(ds)
        assert result.fault_log is not None
        assert not result.fault_log.any_activity
        assert result.metrics.total("epi4_faults_injected_total") == 0


class TestDegradedFleet:
    def test_all_but_one_device_quarantined_still_completes(self):
        ds = _dataset(12, 96)
        _, baseline = _run(ds, n_gpus=3)
        spec = (
            "persistent:device=1,at=1;persistent:device=2,at=1;"
            f"seed={FAULT_SEED}"
        )
        search, faulty = _run(
            ds,
            n_gpus=3,
            inject_faults=spec,
            max_retries=0,
            quarantine_after=1,
        )
        assert _solutions(faulty) == _solutions(baseline)
        assert_matches_oracle(faulty, brute_force_topk(ds, 3))
        assert sorted(faulty.fault_log.quarantined_devices) == [1, 2]
        assert search.cluster.active_gpus == [search.cluster.gpus[0]]

    def test_last_pending_iteration_moves_to_an_idle_device(self, tmp_path):
        # A resume leaves one pending iteration on a 2-device fleet.  The
        # device that first runs it fails and is quarantined; the other
        # device, idle so far, must take the iteration over.
        ds = _dataset(12, 96)
        path = tmp_path / "search.journal"
        Epi4TensorSearch(ds, SearchConfig(block_size=4, top_k=3), n_gpus=2).run(
            journal_path=path
        )
        kept = cut_journal(path, 2)
        resumed_search = Epi4TensorSearch(
            ds,
            SearchConfig(
                block_size=4,
                top_k=3,
                inject_faults="transient:op=tensor4,count=1",
                max_retries=0,
                quarantine_after=1,
                backoff_base_ms=0.0,
            ),
            n_gpus=2,
        )
        resumed = resumed_search.run(journal_path=path)
        (failed,) = resumed.fault_log.quarantined_devices
        [pending] = sorted(set(range(3)) - set(kept))
        assert resumed.executed_assignment[1 - failed] == [pending]
        assert_matches_oracle(resumed, brute_force_topk(ds, 3))

    def test_single_device_persistent_failure_aborts(self):
        ds = _dataset()
        search = Epi4TensorSearch(
            ds,
            SearchConfig(
                block_size=4,
                inject_faults="persistent:device=0,at=1",
                max_retries=1,
                backoff_base_ms=0.0,
            ),
            n_gpus=1,
        )
        with pytest.raises(SearchAbortedError):
            search.run()

    def test_iteration_fault_storm_quarantines_every_device_and_aborts(self):
        # Both devices surrender iteration 2, get it handed back and are
        # quarantined; then the search must abort, not loop.
        ds = _dataset(12, 96)
        search = Epi4TensorSearch(
            ds,
            SearchConfig(
                block_size=4,
                inject_faults="transient:iter=2,count=500",
                max_retries=1,
                backoff_base_ms=0.0,
            ),
            n_gpus=2,
        )
        error = _run_bounded(search)
        assert isinstance(error, SearchAbortedError)
        assert "cannot complete" in str(error)
        assert sorted(search.fault_log.quarantined_devices) == [0, 1]

    def test_host_error_on_one_device_thread_unwinds_the_others(
        self, monkeypatch
    ):
        # A device thread dying of a non-device error leaves its iteration
        # in flight; the other thread must not wait for it forever.
        ds = _dataset(12, 96)
        search = Epi4TensorSearch(ds, SearchConfig(block_size=4), n_gpus=2)
        run_rounds = Epi4TensorSearch._run_rounds

        def broken(self, executor, wi, parent_span=None):
            if wi == 2:
                raise RuntimeError("host bug")
            return run_rounds(self, executor, wi, parent_span)

        monkeypatch.setattr(Epi4TensorSearch, "_run_rounds", broken)
        error = _run_bounded(search)
        assert isinstance(error, RuntimeError)
        assert "host bug" in str(error)

    def test_fresh_run_after_aborted_run_is_clean(self):
        # Resilience state must reset per run(): disable injection and the
        # same search object completes normally.
        ds = _dataset()
        search = Epi4TensorSearch(
            ds,
            SearchConfig(
                block_size=4,
                inject_faults="persistent:device=0,at=1",
                max_retries=0,
                backoff_base_ms=0.0,
            ),
            n_gpus=1,
        )
        with pytest.raises(SearchAbortedError):
            search.run()
        search._fault_plan = None  # operator fixed the machine
        result = search.run()
        _, baseline = _run(ds, top_k=1)
        assert [(s.score, s.packed) for s in result.top_solutions] == [
            (s.score, s.packed) for s in baseline.top_solutions
        ][:1]


class TestCheckpointRecoveryUnderFaults:
    def test_corrupted_checkpoint_resume_recovers_committed_work(self, tmp_path):
        ds = _dataset(12, 96)  # 3 outer iterations => >= 2 journal commits
        path = tmp_path / "search.journal"
        config = dict(block_size=4, top_k=3, backoff_base_ms=0.0)
        _, baseline = _run(ds, **config)

        # Run 1: a fault storm on the last outer iteration aborts the
        # search after the earlier iterations have committed.
        search1 = Epi4TensorSearch(
            ds,
            SearchConfig(
                inject_faults="transient:iter=2,count=500",
                max_retries=1,
                **config,
            ),
            n_gpus=1,
        )
        with pytest.raises(SearchAbortedError):
            search1.run(journal_path=path)
        committed = path.read_bytes()

        # Pre-emption tears the next commit frame half-way through.
        torn = _frame({"type": "commit", "wi": 2, "solutions": []})[:15]
        path.write_bytes(committed + torn)

        # Recovery drops the torn tail and keeps every durable commit.
        with pytest.warns(RuntimeWarning, match="torn"):
            with RoundJournal.open(path, search1.fingerprint()) as journal:
                assert journal.completed == {0, 1}
        assert path.read_bytes() == committed

        # Run 2: fault-free resume re-executes only the lost iteration
        # and matches the baseline.
        search2 = Epi4TensorSearch(
            ds, SearchConfig(**config), n_gpus=1
        )
        resumed = search2.run(journal_path=path)
        assert resumed.executed_assignment == [[2]]
        assert _solutions(resumed) == _solutions(baseline)


class TestHangWatchdog:
    """Acceptance: hang faults cancelled by the watchdog are recovered
    bit-identically, with watchdog activity visible in the metrics."""

    def test_hang_faults_bit_identical_with_deadline(self):
        ds = _dataset()
        _, baseline = _run(ds)
        spec = f"hang:op=tensor4,count=2;seed={FAULT_SEED}"
        search, faulty = _run(
            ds,
            inject_faults=spec,
            deadline_ms=50.0,
            max_retries=3,
        )
        assert _solutions(faulty) == _solutions(baseline)
        assert_matches_oracle(faulty, brute_force_topk(ds, 3))
        assert search.metrics.total("epi4_watchdog_trips_total") == 2
        assert search.fault_log.failures_by_kind().get("hang", 0) == 2

    def test_hang_spec_without_deadline_rejected_up_front(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            SearchConfig(inject_faults="hang:op=tensor4", block_size=4)

    def test_deadline_without_hangs_is_harmless(self):
        ds = _dataset()
        _, baseline = _run(ds)
        search, timed = _run(ds, deadline_ms=60_000.0)
        assert _solutions(timed) == _solutions(baseline)
        assert search.fault_log.total_watchdog_trips == 0


class TestElasticConfigValidation:
    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_bad_deadline_rejected(self, bad):
        with pytest.raises(ValueError, match="deadline_ms"):
            SearchConfig(deadline_ms=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_backoff_rejected(self, bad):
        # NaN would record nan backoff seconds; inf would overflow
        # time.sleep on the first retry, mid-search.
        with pytest.raises(ValueError, match="backoff_base_ms"):
            SearchConfig(backoff_base_ms=bad)


class TestOperandHoldUnderFaults:
    """Each outer iteration holds the sweeps whose first block is its own
    for the whole iteration.  A retried iteration must start from an
    empty hold, so every fault spec keeps the fault-free digest."""

    @pytest.mark.parametrize(
        "n_gpus, n_streams", [(1, 1), (1, 2), (2, 1)]
    )
    @pytest.mark.parametrize(
        "spec",
        [
            "corrupt:count=3",
            "transient:op=tensor3,count=2",
            "transient:op=tensor4,iter=0,count=1",
        ],
    )
    def test_fault_specs_keep_the_fault_free_digest(
        self, spec, n_gpus, n_streams
    ):
        # 14 SNPs at B=4: the last block is padded (M % B != 0).
        ds = _dataset(14, 96, seed=9)
        knobs = dict(n_gpus=n_gpus, n_streams=n_streams, max_retries=3)
        _, baseline = _run(ds, **knobs)
        _, faulty = _run(ds, inject_faults=f"{spec};seed={FAULT_SEED}", **knobs)
        assert _solutions(faulty) == _solutions(baseline)
        assert_matches_oracle(faulty, brute_force_topk(ds, 3))
        log = faulty.fault_log
        if spec.startswith("corrupt"):
            assert log.total_degraded_rounds > 0
        else:
            assert log.total_retries >= 1

    def test_retried_iteration_starts_with_an_empty_hold(self, monkeypatch):
        import repro.core.search as search_mod

        executor_cls = search_mod._SingleDeviceExecutor
        sweep3 = executor_cls.sweep3
        launched = []

        def recording(self, cls, off_a, off_b, combined=None):
            launched.append((cls, off_a, off_b))
            return sweep3(self, cls, off_a, off_b, combined=combined)

        monkeypatch.setattr(executor_cls, "sweep3", recording)
        ds = _dataset(12, 96)
        _, baseline = _run(ds)
        # Sweep (4, 4): iteration 1's first held sweep, and iteration 0's
        # xy sweep of pair (0, 1).
        fault_free = launched.count((0, 4, 4))
        launched.clear()
        _, faulty = _run(
            ds, inject_faults="transient:op=tensor4,iter=1,count=2", max_retries=3
        )
        assert _solutions(faulty) == _solutions(baseline)
        # Iteration 1 ran three times; each retry re-launched its first
        # held sweep, so none reused an earlier attempt's hold.
        assert launched.count((0, 4, 4)) == fault_free + 2


class TestChunkedKernelUnderFaults:
    """Injected tensor4 corruption is caught before the chunked scoring
    kernel reads the counts: the degraded rounds rescore from exact
    corners, and the ranked digest equals the fault-free one."""

    @pytest.mark.parametrize("positions", [7, None])
    def test_corrupt_faults_keep_the_digest(self, monkeypatch, positions):
        import repro.core.search as search_module
        from repro.obs.manifest import solutions_digest

        if positions is not None:
            monkeypatch.setattr(search_module, "CHUNK_POSITIONS", positions)
        ds = _dataset(n_snps=22, n_samples=160, seed=9)
        _, clean = _run(ds, block_size=8, top_k=5)
        search, faulty = _run(
            ds,
            block_size=8,
            top_k=5,
            inject_faults=f"corrupt:count=3;seed={FAULT_SEED}",
        )
        assert search.fault_log.total_degraded_rounds >= 1
        assert solutions_digest(faulty.top_solutions) == solutions_digest(
            clean.top_solutions
        )
        assert faulty.metrics.total("epi4_prune_quads_total") > 0


class TestDegradedRoundPurge:
    """A degraded round drops from the operand cache exactly the
    completed triplets the round requests (the ones its derived cells
    read) before it rescores from exact corners."""

    def test_corrupted_round_purges_its_requested_triplets(self, monkeypatch):
        import repro.core.search as search_mod
        from repro.core.operand_cache import OperandCache

        ds = _dataset(12, 96, seed=7)
        knobs = dict(cache_mb=float("inf"), prune=False)

        # The full3 keys every round requests, from a fault-free run.
        requested: dict[tuple, set] = {}
        score_round = search_mod.score_round

        def recording_score_round(operands, *args, full3_provider, **kwargs):
            keys = requested.setdefault(operands.offsets, set())

            def provider(cls, triple, factory):
                keys.add(("full3", cls, *triple))
                return full3_provider(cls, triple, factory)

            return score_round(
                operands, *args, full3_provider=provider, **kwargs
            )

        with monkeypatch.context() as patch:
            patch.setattr(search_mod, "score_round", recording_score_round)
            _, clean = _run(ds, **knobs)

        # The faulty run: each degraded round's offsets, then the keys
        # invalidated while it is handled.
        events: list[tuple] = []
        invalidate = OperandCache.invalidate
        degraded_round = search_mod.Epi4TensorSearch._degraded_round

        def recording_invalidate(self, key):
            events.append(key)
            return invalidate(self, key)

        def recording_degraded_round(self, executor, operands, *args, **kw):
            events.append(operands.offsets)
            return degraded_round(self, executor, operands, *args, **kw)

        monkeypatch.setattr(OperandCache, "invalidate", recording_invalidate)
        monkeypatch.setattr(
            search_mod.Epi4TensorSearch,
            "_degraded_round",
            recording_degraded_round,
        )
        _, faulty = _run(
            ds, inject_faults=f"corrupt:count=3;seed={FAULT_SEED}", **knobs
        )
        assert _solutions(faulty) == _solutions(clean)

        purged: dict[tuple, list] = {}
        for event in events:
            if event[0] == "full3":
                purged[offsets].append(event)
            else:
                offsets = event
                purged[offsets] = []
        assert len(purged) == faulty.fault_log.total_degraded_rounds >= 1
        wxy_spared = False
        for offsets, keys in purged.items():
            assert sorted(keys) == sorted(requested[offsets])
            wo, xo, yo, _ = offsets
            wxy_spared |= ("full3", 0, wo, xo, yo) not in keys
        # Some degraded round's wxy triplet is none of its derived ones,
        # and stays cached.
        assert wxy_spared
