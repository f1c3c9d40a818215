"""Crash-injection harness: SIGKILL + torn-journal resume is exactly-once.

Two layers, matching the acceptance criteria:

- **Truncation matrix** (in-process, exhaustive): the journal of a full
  reference run is truncated at *every* byte offset; each truncated copy
  is resumed and must reproduce the uninterrupted top-k bit-identically,
  with no outer iteration scored twice (every re-executed iteration is
  exactly one the truncation un-committed).
- **SIGKILL harness** (subprocess): a child process runs the search and
  kills itself with ``SIGKILL`` mid-commit — after N durable commits,
  with a configurable partial tail of the next frame flushed — leaving
  exactly the on-disk state a real crash would.  The parent resumes from
  the survivor journal and must converge to the same top-k.

The suite is marked ``chaos`` so CI can run it in a dedicated job over a seed matrix (``EPI4TENSOR_CHAOS_SEED``).
"""

import os
import signal
import subprocess
import sys
import warnings

import pytest

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from tests.helpers import assert_matches_oracle, brute_force_topk

pytestmark = pytest.mark.chaos

#: CI replays this suite under several dataset seeds; all must pass.
CHAOS_SEED = int(os.environ.get("EPI4TENSOR_CHAOS_SEED", "0"))

_N_SNPS = 20  # -> 5 outer iterations at block_size=4
_N_SAMPLES = 96
_BLOCK = 4
_TOP_K = 3


def _dataset():
    return generate_random_dataset(_N_SNPS, _N_SAMPLES, seed=11 + CHAOS_SEED)


def _config(**kwargs):
    kwargs.setdefault("block_size", _BLOCK)
    kwargs.setdefault("top_k", _TOP_K)
    return SearchConfig(**kwargs)


def _solutions(result):
    return [(s.score, s.packed) for s in result.top_solutions]


def _executed(result):
    return [wi for per_dev in result.executed_assignment for wi in per_dev]


class TestTruncationMatrix:
    def test_resume_from_every_byte_offset_is_exactly_once(self, tmp_path):
        ds = _dataset()
        reference = Epi4TensorSearch(ds, _config()).run()
        full = tmp_path / "full.journal"
        jres = Epi4TensorSearch(ds, _config()).run(journal_path=str(full))
        assert _solutions(jres) == _solutions(reference)
        data = full.read_bytes()
        nb = jres.block_scheme.nb
        # The acceptance floor: the sweep must cover >= 50 kill points.
        assert len(data) + 1 >= 50
        for cut in range(len(data) + 1):
            path = tmp_path / "cut.journal"
            path.write_bytes(data[:cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                resumed = Epi4TensorSearch(ds, _config()).run(
                    journal_path=str(path)
                )
            assert _solutions(resumed) == _solutions(reference), (
                f"top-k diverged after truncation at byte {cut}"
            )
            executed = _executed(resumed)
            # Exactly-once: nothing ran twice, and re-executed work is
            # precisely the set the truncation un-committed.
            assert len(executed) == len(set(executed))
            replayed = resumed.metrics.total("epi4_journal_replayed_total")
            committed = resumed.metrics.total("epi4_journal_commits_total")
            assert replayed + len(executed) == nb, (
                f"byte {cut}: replayed+reexecuted != total work"
            )
            assert committed == len(executed)


_CHILD_SCRIPT = r"""
import os, signal, sys

import repro.core.journal as J
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset

kill_after = int(sys.argv[1])     # durable commits before the crash
partial_bytes = int(sys.argv[2])  # bytes of the fatal frame flushed
path = sys.argv[3]
seed = int(sys.argv[4])

orig_append = J.RoundJournal._append_locked
state = {"commits": 0}

def crashing_append(self, record):
    if record.get("type") == "commit":
        if state["commits"] >= kill_after:
            frame = J._frame(record)
            self._fh.write(frame[:partial_bytes])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
        state["commits"] += 1
    orig_append(self, record)

J.RoundJournal._append_locked = crashing_append
ds = generate_random_dataset(20, 96, seed=11 + seed)
Epi4TensorSearch(
    ds, SearchConfig(block_size=4, top_k=3)
).run(journal_path=path)
os._exit(3)  # unreachable when the kill point is inside the run
"""


class TestSigkillHarness:
    @pytest.mark.parametrize("kill_after", [0, 1, 3])
    @pytest.mark.parametrize("partial_bytes", [0, 5, 17])
    def test_sigkill_mid_commit_resumes_bit_identically(
        self, tmp_path, kill_after, partial_bytes
    ):
        ds = _dataset()
        reference = Epi4TensorSearch(ds, _config()).run()
        path = tmp_path / "crash.journal"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), _SRC) if p
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _CHILD_SCRIPT,
                str(kill_after),
                str(partial_bytes),
                str(path),
                str(CHAOS_SEED),
            ],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, (
            f"child survived its own kill point: rc={proc.returncode}, "
            f"stderr={proc.stderr.decode(errors='replace')[-500:]}"
        )
        # The survivor journal holds exactly `kill_after` durable commits
        # plus a torn tail of `partial_bytes` — the resumed run must drop
        # the tail and finish the remainder exactly once.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = Epi4TensorSearch(ds, _config()).run(
                journal_path=str(path)
            )
        assert _solutions(resumed) == _solutions(reference)
        assert_matches_oracle(resumed, brute_force_topk(ds, _TOP_K))
        executed = _executed(resumed)
        assert len(executed) == len(set(executed))
        assert len(executed) == resumed.block_scheme.nb - kill_after


_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestShardedChaos:
    """SIGKILL a real shard worker mid-commit; the coordinator must
    respawn it, the respawned worker must journal-resume (re-executing
    exactly the uncommitted iterations), and the merged result must stay
    bit-identical to the unsharded run.  Drives genuine ``spawn``
    processes through :func:`repro.dist.run_sharded` with the
    ``EPI4TENSOR_DIST_KILL`` hook armed in the worker environment."""

    def test_sigkilled_worker_is_respawned_and_merge_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        from repro.dist import run_sharded
        from repro.obs.manifest import solutions_digest

        ds = _dataset()
        reference = Epi4TensorSearch(ds, _config()).run()
        # Shard 1 of a 2-shard contiguous plan holds several iterations
        # (nb=5); kill its first worker mid-commit after one durable
        # commit, so the respawn must both replay and re-execute.
        monkeypatch.setenv("EPI4TENSOR_DIST_KILL", "1:1")
        merged = run_sharded(
            ds,
            _config(),
            n_shards=2,
            out_dir=tmp_path,
            max_restarts=2,
        )
        assert merged.top_k_sha256 == solutions_digest(
            reference.top_solutions
        )
        assert_matches_oracle(merged, brute_force_topk(ds, _TOP_K))
        # The chaos hook fired exactly once (durable marker present)...
        assert (tmp_path / "shard-1.killed").exists()
        # ...and the respawned worker actually resumed through the
        # journal rather than restarting from scratch.
        shard1 = merged.shards[1]
        assert shard1["replayed_iterations"] >= 1
        assert (
            shard1["replayed_iterations"] + shard1["executed_iterations"]
            == len(shard1["shard"]["iterations"])
        )
        # The undisturbed shard ran clean.
        assert merged.shards[0]["replayed_iterations"] == 0

    def test_restart_budget_exhaustion_raises(self, tmp_path, monkeypatch):
        from repro.dist import run_sharded
        from repro.dist.coordinator import ShardWorkerError
        from repro.dist.worker import CHAOS_KILL_ENV

        ds = _dataset()
        monkeypatch.setenv(CHAOS_KILL_ENV, "0:0")
        # Remove the fired-once marker before each respawn so every
        # incarnation of shard 0 dies, exhausting the budget.
        import repro.dist.coordinator as coord

        original = coord._drive_workers

        def relentless(requests, out_dir, max_procs, max_restarts):
            import glob as _glob
            import threading
            import time

            def reaper():
                for _ in range(400):
                    for marker in _glob.glob(
                        os.path.join(out_dir, "*.killed")
                    ):
                        try:
                            os.remove(marker)
                        except OSError:
                            pass
                    time.sleep(0.05)

            thread = threading.Thread(target=reaper, daemon=True)
            thread.start()
            return original(requests, out_dir, max_procs, max_restarts)

        monkeypatch.setattr(coord, "_drive_workers", relentless)
        with pytest.raises(ShardWorkerError, match="shard 0.*budget"):
            run_sharded(
                ds, _config(), n_shards=2, out_dir=tmp_path, max_restarts=1
            )
