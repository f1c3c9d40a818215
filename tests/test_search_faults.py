"""Searches on failing devices: an abort loses no durable work.

Nothing retries a failed launch inside a run.  A device that fails
aborts the run with the device's own exception, after stopping the other
device threads; the round journal keeps every iteration committed before
the failure, and a resume on healthy devices re-executes only the rest.
The resumed top-k is bit-identical to a run no device failed, and matches
the independent brute-force oracle (:func:`tests.helpers.brute_force_topk`).
The failures are made with :func:`tests.helpers.fail_tensor4`.
"""

import pytest

import repro.core.search as search_mod
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from tests.helpers import (
    LaunchFailure,
    assert_matches_oracle,
    brute_force_topk,
    fail_tensor4,
    resume_after_failure,
    run_bounded,
)


def _dataset(n_snps=12, n_samples=96, seed=5):
    # 12 SNPs at B=4: 3 outer iterations, 30 4-way launches.
    return generate_random_dataset(n_snps, n_samples, seed=seed)


def _solutions(result):
    return [(s.score, s.packed) for s in result.top_solutions]


class TestBitIdenticalUnderFaults:
    @pytest.mark.parametrize("engine_kind", ["and_popc", "xor_popc"])
    def test_transient_faults_all_engines_and_partitions(
        self, engine_kind, monkeypatch, tmp_path
    ):
        # One 4-way launch fails half-way through a 2-device run (the
        # outer-loop split is the only partition scheme); the resume
        # replays what committed and executes the rest.
        ds = _dataset()
        config = SearchConfig(block_size=4, top_k=3, engine_kind=engine_kind)
        baseline = Epi4TensorSearch(ds, config, n_gpus=2).run()
        resumed = resume_after_failure(
            monkeypatch,
            lambda: Epi4TensorSearch(ds, config, n_gpus=2),
            tmp_path / "search.journal",
            at=15,
        )
        assert _solutions(resumed) == _solutions(baseline)
        assert_matches_oracle(resumed, brute_force_topk(ds, 3))
        executed = sum(len(wis) for wis in resumed.executed_assignment)
        replayed = resumed.metrics.total("epi4_journal_replayed_total")
        assert executed + replayed == 3


class TestFaultAccounting:
    def test_fault_free_run_reports_no_activity(self, tmp_path):
        # Every iteration of a journaled run no device failed commits
        # once; nothing is replayed and no torn tail is dropped.
        ds = _dataset()
        result = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, top_k=3)
        ).run(journal_path=tmp_path / "search.journal")
        assert result.executed_assignment == [[0, 1, 2]]
        assert result.metrics.total("epi4_journal_commits_total") == 3
        assert result.metrics.total("epi4_journal_replayed_total") == 0
        assert result.metrics.total("epi4_journal_torn_bytes") == 0


class TestDegradedFleet:
    def test_host_error_on_one_device_thread_unwinds_the_others(
        self, monkeypatch
    ):
        # A device thread dying of a host error leaves its iteration in
        # flight; the other thread must not wait for it forever.
        ds = _dataset()
        search = Epi4TensorSearch(ds, SearchConfig(block_size=4), n_gpus=2)
        run_rounds = Epi4TensorSearch._run_rounds

        def broken(self, executor, wi, parent_span=None):
            if wi == 2:
                raise RuntimeError("host bug")
            return run_rounds(self, executor, wi, parent_span)

        monkeypatch.setattr(Epi4TensorSearch, "_run_rounds", broken)
        _, error = run_bounded(search)
        assert isinstance(error, RuntimeError)
        assert "host bug" in str(error)

    def test_fresh_run_after_aborted_run_is_clean(self, monkeypatch):
        # Per-run state resets in run(): once the failing device is
        # healthy again, the same search object completes normally.
        ds = _dataset()
        search = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, top_k=3), n_gpus=2
        )
        with monkeypatch.context() as patch:
            fail_tensor4(patch, at=5)
            with pytest.raises(LaunchFailure):
                search.run()
        result = search.run()
        ran = sorted(wi for wis in result.executed_assignment for wi in wis)
        assert ran == [0, 1, 2]
        assert_matches_oracle(result, brute_force_topk(ds, 3))


class TestOperandHoldUnderFaults:
    def test_retried_iteration_starts_with_an_empty_hold(
        self, monkeypatch, tmp_path
    ):
        # Each outer iteration holds the sweeps whose first block is its
        # own.  Iteration 1 dies after its last round, before its commit;
        # the resume on the same search object runs it again and must
        # launch every sweep a fault-free iteration 1 launches, reusing
        # nothing the failed attempt held.
        executor_cls = search_mod._SingleDeviceExecutor
        sweep3 = executor_cls.sweep3
        run_rounds = Epi4TensorSearch._run_rounds
        current = {}
        launched = []

        def recording(self, cls, off_a, off_b, combined=None):
            launched.append((current["wi"], cls, off_a, off_b))
            return sweep3(self, cls, off_a, off_b, combined=combined)

        def tagged(self, executor, wi, parent_span=None):
            current["wi"] = wi
            return run_rounds(self, executor, wi, parent_span)

        def dies_before_commit(self, executor, wi, parent_span=None):
            reducer = tagged(self, executor, wi, parent_span)
            if wi == 1:
                raise RuntimeError("device lost before the commit")
            return reducer

        def iteration_1():
            return sorted(launch for launch in launched if launch[0] == 1)

        monkeypatch.setattr(executor_cls, "sweep3", recording)
        monkeypatch.setattr(Epi4TensorSearch, "_run_rounds", tagged)
        ds = _dataset()
        config = SearchConfig(block_size=4, top_k=3)
        baseline = Epi4TensorSearch(ds, config).run()
        fault_free = iteration_1()
        assert fault_free

        launched.clear()
        search = Epi4TensorSearch(ds, config)
        path = tmp_path / "search.journal"
        with monkeypatch.context() as patch:
            patch.setattr(Epi4TensorSearch, "_run_rounds", dies_before_commit)
            with pytest.raises(RuntimeError, match="device lost"):
                search.run(journal_path=path)
        assert iteration_1() == fault_free

        launched.clear()
        resumed = search.run(journal_path=path)
        assert resumed.executed_assignment == [[1, 2]]
        assert iteration_1() == fault_free
        assert _solutions(resumed) == _solutions(baseline)
