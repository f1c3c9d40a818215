"""Unit tests for the crash-safe round journal (WAL framing + recovery).

The load-bearing property: for a journal byte stream truncated at *any*
offset, recovery yields exactly a prefix of the committed states — never
a torn mix, never a duplicate, never an exception — and the next append
continues cleanly from the recovered prefix.
"""

import json
import os
import struct
import warnings
import zlib

import pytest

from repro.core.journal import (
    JOURNAL_VERSION,
    JournalError,
    RoundJournal,
    _frame,
    domain_clause,
    search_fingerprint,
)
from repro.core.reduction import TopKReducer
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.core.solution import Solution
from repro.datasets import generate_random_dataset
from repro.perfmodel.workload import outer_iteration_executed_tensor_ops
from tests.helpers import cut_journal

FP = "M8r8c48k48B4Eand_popcSk2K3G1"


def _sol(score, packed=7):
    return Solution(score=float(score), packed=int(packed))


def _open(path, fingerprint=FP, **kwargs):
    return RoundJournal.open(path, fingerprint, **kwargs)


def _fingerprint(**overrides):
    base = dict(
        n_snps=16, n_real_snps=13, n_controls=60, n_cases=60, block_size=4,
        engine_kind="and_popc", top_k=1, n_gpus=1,
    )
    base.update(overrides)
    return search_fingerprint(**base)


class TestFreshAndResume:
    def test_fresh_journal_writes_header_only(self, tmp_path):
        path = tmp_path / "run.journal"
        with _open(path) as journal:
            assert journal.completed == set()
            assert journal.stats.commits == 0
        assert path.exists() and path.stat().st_size > 0

    def test_commits_resume_exactly(self, tmp_path):
        path = tmp_path / "run.journal"
        with _open(path) as journal:
            journal.commit(0, [_sol(3.0)])
            journal.commit(4, [_sol(2.0, packed=8), _sol(3.0, packed=9)])
        with _open(path) as journal:
            assert journal.completed == {0, 4}
            assert journal.stats.replayed == 2
            assert [s.score for s in journal.solutions] == [2.0, 3.0]
            reducer = TopKReducer(2)
            journal.seed_reducer(reducer)
            assert [s.score for s in reducer.result()] == [2.0, 3.0]

    def test_scores_round_trip_bit_identically(self, tmp_path):
        path = tmp_path / "run.journal"
        score = 85.90921983467532  # full double precision survives JSON
        with _open(path) as journal:
            journal.commit(0, [_sol(score, packed=123456789)])
        with _open(path) as journal:
            (sol,) = journal.solutions
            assert sol.score == score and sol.packed == 123456789


class TestExactlyOnce:
    def test_duplicate_commit_rejected_at_append(self, tmp_path):
        path = tmp_path / "run.journal"
        with _open(path) as journal:
            journal.commit(1, [_sol(1.0)])
            with pytest.raises(JournalError, match="committed twice"):
                journal.commit(1, [_sol(1.0)])

    def test_duplicate_commit_rejected_at_recovery(self, tmp_path):
        path = tmp_path / "run.journal"
        with _open(path) as journal:
            journal.commit(1, [_sol(1.0)])
        # Forge a second commit frame for the same wi.
        with open(path, "ab") as fh:
            fh.write(
                _frame({"type": "commit", "wi": 1, "solutions": [[1.0, 7]]})
            )
        with pytest.raises(JournalError, match="committed twice"):
            _open(path)


class TestIdentityGuard:
    def test_wrong_fingerprint_rejected(self, tmp_path):
        path = tmp_path / "run.journal"
        _open(path).close()
        with pytest.raises(JournalError, match="different search"):
            _open(path, fingerprint="OTHER")

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "run.journal"
        with open(path, "wb") as fh:
            fh.write(
                _frame(
                    {
                        "type": "header",
                        "version": JOURNAL_VERSION + 1,
                        "fingerprint": FP,
                    }
                )
            )
        with pytest.raises(JournalError, match="newer"):
            _open(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "run.journal"
        _open(path).close()
        with open(path, "ab") as fh:
            fh.write(_frame({"type": "mystery"}))
        with pytest.raises(JournalError, match="mystery"):
            _open(path)


class TestSearchFingerprint:
    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.journal"
        _open(path, fingerprint=_fingerprint()).close()
        with pytest.raises(JournalError, match="different search"):
            _open(path, fingerprint=_fingerprint(block_size=8))

    def test_every_clause_is_part_of_the_identity(self):
        changed = dict(
            n_snps=20, n_real_snps=14, n_controls=61, n_cases=59,
            block_size=8, engine_kind="xor_popc", top_k=3, n_gpus=2,
        )
        fingerprints = {_fingerprint()} | {
            _fingerprint(**{key: value}) for key, value in changed.items()
        }
        assert len(fingerprints) == 1 + len(changed)

    def test_search_fingerprint_is_pinned(self):
        # Journals and shard artifacts written by earlier versions carry
        # these exact strings (the ``Sk2`` clause included); a change
        # here would refuse to resume every existing journal.
        ds = generate_random_dataset(13, 121, seed=5)
        search = Epi4TensorSearch(
            ds,
            SearchConfig(block_size=4, top_k=3, engine_kind="xor_popc"),
            n_gpus=2,
        )
        assert search.fingerprint() == "M16r13c61k60B4Exor_popcSk2K3G2"
        assert (
            search.fingerprint([1, 2])
            == "M16r13c61k60B4Exor_popcSk2K3G2+W67427d0c605f"
        )

    def test_only_a_restricted_domain_adds_a_clause(self):
        assert domain_clause(4, [3, 1, 0, 2]) == ""
        assert domain_clause(4, [0, 1]).startswith("+W")
        assert domain_clause(4, [0, 1]) != domain_clause(4, [2, 3])


class TestTornTailRecovery:
    def _journal_bytes(self, tmp_path, commits=4):
        path = tmp_path / "full.journal"
        with _open(path) as journal:
            for wi in range(commits):
                journal.commit(wi, [_sol(10.0 - wi, packed=wi)])
        return path.read_bytes()

    def test_truncation_at_every_byte_offset_recovers_a_prefix(
        self, tmp_path
    ):
        """The acceptance property: a kill at ANY byte offset loses at
        most the torn tail frame — recovered states are exactly the
        valid prefixes, in order, with no duplicates."""
        data = self._journal_bytes(tmp_path, commits=4)
        assert len(data) > 50  # the offsets swept below are meaningful
        prefixes = []
        for cut in range(len(data) + 1):
            path = tmp_path / "cut.journal"
            path.write_bytes(data[:cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with _open(path) as journal:
                    recovered = tuple(sorted(journal.completed))
                    # Post-recovery appends must work from any cut point.
                    journal.commit(99 + cut, [_sol(0.5)])
                    assert 99 + cut in journal.completed
            prefixes.append(recovered)
        # Monotone: each state is a prefix of the fully-synced sequence.
        expected = [tuple(range(n)) for n in range(5)]
        assert set(prefixes) == set(expected)
        assert prefixes == sorted(prefixes, key=len)
        assert prefixes[-1] == (0, 1, 2, 3)

    def test_torn_tail_is_truncated_and_warned(self, tmp_path):
        data = self._journal_bytes(tmp_path, commits=2)
        path = tmp_path / "torn.journal"
        path.write_bytes(data + b"\x00garbage")
        with pytest.warns(RuntimeWarning, match="torn"):
            with _open(path) as journal:
                assert journal.completed == {0, 1}
                assert journal.stats.torn_bytes == len(b"\x00garbage")
        # The truncation is durable: reopening is warning-free.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _open(path).close()

    def test_corrupted_crc_ends_the_valid_prefix(self, tmp_path):
        data = bytearray(self._journal_bytes(tmp_path, commits=3))
        # Flip one payload byte of the last frame.
        data[-1] ^= 0xFF
        path = tmp_path / "crc.journal"
        path.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="torn"):
            with _open(path) as journal:
                assert journal.completed == {0, 1}

    def test_absurd_frame_length_is_damage_not_allocation(self, tmp_path):
        path = tmp_path / "bomb.journal"
        _open(path).close()
        payload = json.dumps({"type": "commit"}).encode()
        with open(path, "ab") as fh:
            fh.write(
                struct.pack(
                    "<2sII", b"EJ", 2**31, zlib.crc32(payload)
                )
                + payload
            )
        with pytest.warns(RuntimeWarning, match="torn"):
            with _open(path) as journal:
                assert journal.completed == set()


class TestCompaction:
    def test_compaction_preserves_state_and_shrinks(self, tmp_path):
        path = tmp_path / "run.journal"
        with _open(path) as journal:
            for wi in range(20):
                journal.commit(wi, [_sol(5.0, packed=wi)])
            before = path.stat().st_size
            journal.compact()
            after = path.stat().st_size
            assert after < before
            assert journal.stats.compactions == 1
            # Appends continue on the compacted file.
            journal.commit(20, [_sol(4.0)])
        with _open(path) as journal:
            assert journal.completed == set(range(21))
            assert [s.score for s in journal.solutions] == [4.0]

    def test_open_auto_compacts_past_threshold(self, tmp_path):
        path = tmp_path / "run.journal"
        with _open(path) as journal:
            for wi in range(10):
                journal.commit(wi, [_sol(1.0)])
        size_before = path.stat().st_size
        with _open(path, compact_after=4) as journal:
            assert journal.stats.compactions == 1
            assert journal.completed == set(range(10))
        assert path.stat().st_size < size_before

    def test_no_tmp_litter_after_compaction(self, tmp_path):
        path = tmp_path / "run.journal"
        with _open(path) as journal:
            journal.commit(0, [_sol(1.0)])
            journal.compact()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.journal"]


class TestMetrics:
    def test_export(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        path = tmp_path / "run.journal"
        with _open(path) as journal:
            journal.commit(0, [_sol(1.0)])
            reg = MetricsRegistry()
            journal.export_metrics(reg)
            assert reg.total("epi4_journal_commits_total") == 1.0
            assert reg.total("epi4_journal_replayed_total") == 0.0


class TestSearchResume:
    """``Epi4TensorSearch.run(journal_path=...)`` resumes from a journal
    cut back to a prefix of its commits, as a killed run leaves it."""

    def test_resume_skips_completed_and_matches(self, tmp_path):
        ds = generate_random_dataset(16, 120, seed=2)
        path = tmp_path / "run.journal"
        reference = Epi4TensorSearch(ds, SearchConfig(block_size=4)).run()

        # Simulate a crash after two outer iterations: run fully, then
        # cut the journal back to the commits of iterations {0, 1}.
        Epi4TensorSearch(ds, SearchConfig(block_size=4)).run(journal_path=path)
        assert cut_journal(path, 2) == [0, 1]

        resumed = Epi4TensorSearch(ds, SearchConfig(block_size=4)).run(
            journal_path=path
        )
        assert resumed.solution == reference.solution
        # Only iterations 2 and 3 were re-executed.
        expected_ops = sum(
            outer_iteration_executed_tensor_ops(wi, 4, 4, 120) for wi in (2, 3)
        )
        assert resumed.metrics.total("epi4_tensor_ops_total", form="raw") == expected_ops

    def test_fully_completed_journal_runs_nothing(self, tmp_path):
        ds = generate_random_dataset(16, 120, seed=4)
        path = tmp_path / "run.journal"
        reference = Epi4TensorSearch(ds, SearchConfig(block_size=4)).run(
            journal_path=path
        )
        resumed = Epi4TensorSearch(ds, SearchConfig(block_size=4)).run(
            journal_path=path
        )
        assert resumed.solution == reference.solution
        assert resumed.metrics.total("epi4_tensor_ops_total", form="raw") == 0

    def test_config_change_rejected(self, tmp_path):
        ds = generate_random_dataset(16, 120, seed=5)
        path = tmp_path / "run.journal"
        Epi4TensorSearch(ds, SearchConfig(block_size=4)).run(journal_path=path)
        with pytest.raises(JournalError, match="different search"):
            Epi4TensorSearch(ds, SearchConfig(block_size=8)).run(
                journal_path=path
            )
