"""The multi-device loop: one host thread per device, one shared ``Wi`` list.

Every outer iteration runs on exactly one device, whatever the device
count or the iterations a resumed journal already holds; a resume after
a torn journal tail keeps every durable commit; and with ``selfcheck`` a
wrong tensor count aborts the run with :class:`SelfCheckError`.  What a
failing device does to a run is in ``test_search_faults.py``.
"""

import sys

import pytest

from repro.core.journal import RoundJournal, _frame
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.core.selfcheck import SelfCheckError
from repro.datasets import generate_random_dataset
from repro.device.virtual_gpu import VirtualGPU
from tests.helpers import (
    assert_matches_oracle,
    brute_force_topk,
    cut_journal,
    run_bounded,
)


def _dataset(n_snps=12, n_samples=96, seed=5):
    return generate_random_dataset(n_snps, n_samples, seed=seed)


def _solutions(result):
    return [(s.score, s.packed) for s in result.top_solutions]


class TestDeviceLoop:
    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_every_iteration_runs_exactly_once(self, n_gpus):
        ds = _dataset(20, 96)  # 5 outer iterations at B=4
        result = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, top_k=3), n_gpus=n_gpus
        ).run()
        assert len(result.executed_assignment) == n_gpus
        ran = sorted(wi for wis in result.executed_assignment for wi in wis)
        assert ran == list(range(result.block_scheme.nb))
        assert_matches_oracle(result, brute_force_topk(ds, 3))

    def test_shared_list_under_fast_thread_switching(self):
        # More device threads than cores, switching every microsecond: a
        # lost or doubled pop from the shared list shows as an iteration
        # run twice or never.
        ds = _dataset(32, 64)  # 8 outer iterations at B=4
        search = Epi4TensorSearch(ds, SearchConfig(block_size=4), n_gpus=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result, error = run_bounded(search)
        finally:
            sys.setswitchinterval(interval)
        assert error is None
        ran = sorted(wi for wis in result.executed_assignment for wi in wis)
        assert ran == list(range(8))


class TestResume:
    def test_two_device_resume_runs_the_pending_iteration_once(
        self, tmp_path
    ):
        ds = _dataset()
        path = tmp_path / "search.journal"
        config = SearchConfig(block_size=4, top_k=3)
        Epi4TensorSearch(ds, config, n_gpus=2).run(journal_path=path)
        kept = cut_journal(path, 2)
        resumed = Epi4TensorSearch(ds, config, n_gpus=2).run(journal_path=path)
        [pending] = sorted(set(range(3)) - set(kept))
        assert sorted(resumed.executed_assignment) == [[], [pending]]
        assert_matches_oracle(resumed, brute_force_topk(ds, 3))

    def test_torn_journal_tail_keeps_every_durable_commit(self, tmp_path):
        ds = _dataset()  # 3 outer iterations => 3 journal commits
        path = tmp_path / "search.journal"
        config = SearchConfig(block_size=4, top_k=3)
        search = Epi4TensorSearch(ds, config, n_gpus=1)
        baseline = search.run(journal_path=path)
        kept = cut_journal(path, 2)
        committed = path.read_bytes()

        # Pre-emption tears the next commit frame half-way through.
        [lost] = sorted(set(range(3)) - set(kept))
        torn = _frame({"type": "commit", "wi": lost, "solutions": []})[:15]
        path.write_bytes(committed + torn)

        # Recovery drops the torn tail and keeps every durable commit.
        with pytest.warns(RuntimeWarning, match="torn"):
            with RoundJournal.open(path, search.fingerprint()) as journal:
                assert journal.completed == set(kept)
        assert path.read_bytes() == committed

        # The resume re-executes only the lost iteration.
        resumed = Epi4TensorSearch(ds, config, n_gpus=1).run(journal_path=path)
        assert resumed.executed_assignment == [[lost]]
        assert _solutions(resumed) == _solutions(baseline)


class TestSelfCheck:
    def test_wrong_tensor_count_raises(self, monkeypatch):
        # 4 SNPs in one block: one round whose only valid quad is its
        # best, so the self-check re-derives the quad whose count changed.
        # MAF 0.5 at N=8000 keeps every cell far from 0, so the changed
        # count stays inside the scoring kernel's range.
        ds = generate_random_dataset(
            4, 8000, maf_range=(0.5, 0.5), seed=3
        )
        config = SearchConfig(block_size=4, selfcheck=True)
        Epi4TensorSearch(ds, config).run()  # the honest run passes
        launch = VirtualGPU.launch_tensor4

        def off_by_one(self, wx, yz, block_size):
            out = launch(self, wx, yz, block_size)
            out[0, 1, 2, 3, 1, 1, 1, 1] += 1
            return out

        monkeypatch.setattr(VirtualGPU, "launch_tensor4", off_by_one)
        with pytest.raises(SelfCheckError):
            Epi4TensorSearch(ds, config).run()
