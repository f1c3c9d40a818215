"""Cross-shard equivalence: sharded runs are bit-identical to unsharded.

The tentpole invariant of ``repro.dist``: for any shard count, engine,
cache/batching configuration or failed-and-resumed shard, the
deterministically merged top-k — compared by ``top_k_sha256``, i.e. by
the exact ``float.hex()`` of every score — equals the unsharded run's.
Most cells use the inline coordinator (same planner, same worker
function, same artifacts, no process machinery) to keep the matrix
cheap; one cell drives real ``spawn`` worker processes end to end.

Merge *refusal* paths ride along: clause-indexed identity mismatches,
non-partitioned domains, wrong kinds/counts, and shard-journal header
metadata guarding against cross-shard journal replay.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.core.journal import JournalError, RoundJournal
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.dist import (
    ShardMergeError,
    merge_shards,
    plan_shards,
    run_shard,
    run_sharded,
)
from repro.dist.worker import build_request, shard_artifact_name
from repro.obs.manifest import solutions_digest
from tests.helpers import (
    LaunchFailure,
    assert_matches_oracle,
    brute_force_topk,
    fail_tensor4,
)

pytestmark = pytest.mark.dist

# 32 SNPs at block 4 -> nb = 8 outer iterations: enough structure for
# 8 shards, small enough for an inline matrix inside tier-1 budgets.
_N_SNPS = 32
_N_SAMPLES = 96
_BLOCK = 4
_TOP_K = 5


def _dataset(seed: int = 7):
    return generate_random_dataset(_N_SNPS, _N_SAMPLES, seed=seed)


def _config(**kwargs):
    kwargs.setdefault("block_size", _BLOCK)
    kwargs.setdefault("top_k", _TOP_K)
    return SearchConfig(**kwargs)


@pytest.fixture(scope="module")
def oracle():
    """The independent brute-force top-k of :func:`_dataset`."""
    return brute_force_topk(_dataset(), _TOP_K)


def _unsharded_digest(dataset, config) -> str:
    result = Epi4TensorSearch(dataset, config).run()
    return solutions_digest(result.top_solutions)


class TestShardCountEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 8])
    def test_merged_digest_matches_unsharded(self, n_shards, tmp_path, oracle):
        dataset = _dataset()
        config = _config()
        reference = _unsharded_digest(dataset, config)
        merged = run_sharded(
            dataset,
            config,
            n_shards=n_shards,
            out_dir=tmp_path,
            inline=True,
        )
        assert merged.top_k_sha256 == reference
        assert merged.n_shards == n_shards
        assert_matches_oracle(merged, oracle)

    def test_real_worker_processes(self, tmp_path):
        """One cell through the genuine spawn pool, not inline."""
        dataset = _dataset()
        config = _config()
        reference = _unsharded_digest(dataset, config)
        merged = run_sharded(
            dataset, config, n_shards=3, out_dir=tmp_path, max_procs=2
        )
        assert merged.top_k_sha256 == reference
        # Every worker exported its artifact and per-shard manifest.
        for index in range(3):
            assert (tmp_path / f"shard-{index}of3.json").exists()
            assert (tmp_path / f"shard-{index}of3-manifest.json").exists()
        assert (tmp_path / "merged-manifest.json").exists()
        assert (tmp_path / "merged-metrics.prom").exists()


class TestConfigMatrixEquivalence:
    @pytest.mark.parametrize(
        "engine_kind,cached,batch_rounds",
        [
            ("and_popc", True, 1),
            ("and_popc", False, 1),
            ("and_popc", True, 4),
            ("xor_popc", True, 1),
            ("xor_popc", False, 4),
        ],
    )
    def test_engine_cache_batching(
        self, engine_kind, cached, batch_rounds, tmp_path
    ):
        dataset = _dataset()
        config = _config(
            engine_kind=engine_kind,
            cache_mb=float("inf") if cached else None,
            batch_rounds=batch_rounds,
        )
        reference = _unsharded_digest(dataset, config)
        merged = run_sharded(
            dataset, config, n_shards=3, out_dir=tmp_path, inline=True
        )
        assert merged.top_k_sha256 == reference


    @pytest.mark.parametrize("fault_seed", [0, 1, 2])
    def test_fault_injected_shards(self, fault_seed, monkeypatch, tmp_path):
        """A 4-way launch failing inside a shard worker aborts the run;
        running it again in the same directory resumes every shard
        through its journal, and the merge never changes."""
        dataset = _dataset()
        config = _config()
        reference = _unsharded_digest(dataset, config)
        with monkeypatch.context() as patch:
            fail_tensor4(patch, at=1 + 40 * fault_seed)
            with pytest.raises(LaunchFailure):
                run_sharded(
                    dataset, config, n_shards=2, out_dir=tmp_path, inline=True
                )
        merged = run_sharded(
            dataset, config, n_shards=2, out_dir=tmp_path, inline=True
        )
        assert merged.top_k_sha256 == reference


class TestShardArtifacts:
    def test_merge_is_deterministic_from_directory(self, tmp_path):
        dataset = _dataset()
        merged = run_sharded(
            dataset, _config(), n_shards=2, out_dir=tmp_path, inline=True
        )
        again = merge_shards(tmp_path)
        assert again.top_k_sha256 == merged.top_k_sha256
        assert again.manifest.to_json() == merged.manifest.to_json()

    def test_merged_manifest_contract(self, tmp_path):
        run_sharded(
            _dataset(), _config(), n_shards=2, out_dir=tmp_path, inline=True
        )
        with open(tmp_path / "merged-manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["kind"] == "epi4tensor-merged"
        assert manifest["execution"]["n_shards"] == 2
        domains = [
            wi
            for shard in manifest["execution"]["shards"]
            for wi in shard["iterations"]
        ]
        assert sorted(domains) == list(range(manifest["execution"]["nb"]))

    def test_shard_metrics_are_shard_only_and_conserved(self, tmp_path):
        dataset = _dataset()
        config = _config()
        plain = Epi4TensorSearch(dataset, config).run()
        assert "epi4_shard_index" not in plain.metrics.names()
        assert "epi4_shard_iterations_total" not in plain.metrics.names()
        merged = run_sharded(
            dataset, config, n_shards=3, out_dir=tmp_path, inline=True
        )
        m = merged.metrics
        assert m.total("epi4_shard_iterations_total") == 8  # nb
        assert m.value("epi4_shard_count") == 3.0
        requests = m.total("epi4_operand_requests_total")
        executed = m.total("epi4_operand_executed_total")
        served = m.total("epi4_operand_cache_served_total")
        assert requests == executed + served


class TestMergeRefusals:
    def _artifacts(self, tmp_path):
        run_sharded(
            _dataset(), _config(), n_shards=2, out_dir=tmp_path, inline=True
        )
        artifacts = []
        for index in range(2):
            with open(
                tmp_path / shard_artifact_name(index, 2), encoding="utf-8"
            ) as fh:
                artifacts.append(json.load(fh))
        return artifacts

    def test_clause_indexed_identity_mismatch(self, tmp_path):
        artifacts = self._artifacts(tmp_path)
        artifacts[1]["identity"]["block_size"] = 8
        with pytest.raises(ShardMergeError, match=r"clause 'block_size'"):
            merge_shards(artifacts)

    def test_fingerprint_mismatch(self, tmp_path):
        artifacts = self._artifacts(tmp_path)
        artifacts[1]["fingerprint"] = "M0r0c0k0B0Exk0K0PoG0"
        with pytest.raises(ShardMergeError, match="fingerprint"):
            merge_shards(artifacts)

    def test_dataset_digest_mismatch(self, tmp_path):
        artifacts = self._artifacts(tmp_path)
        artifacts[1]["dataset"]["encoded_sha256"] = "0" * 64
        with pytest.raises(ShardMergeError, match="dataset digest"):
            merge_shards(artifacts)

    def test_overlapping_domains(self, tmp_path):
        artifacts = self._artifacts(tmp_path)
        artifacts[1]["shard"]["iterations"] = artifacts[0]["shard"][
            "iterations"
        ]
        with pytest.raises(ShardMergeError, match="also claimed by"):
            merge_shards(artifacts)

    def test_missing_iterations(self, tmp_path):
        artifacts = self._artifacts(tmp_path)
        artifacts[1]["shard"]["iterations"] = artifacts[1]["shard"][
            "iterations"
        ][:-1]
        with pytest.raises(ShardMergeError, match="covered by no shard"):
            merge_shards(artifacts)

    def test_duplicate_shard_index(self, tmp_path):
        artifacts = self._artifacts(tmp_path)
        artifacts[1]["shard"]["index"] = 0
        with pytest.raises(ShardMergeError, match="missing or duplicate"):
            merge_shards(artifacts)

    def test_wrong_kind(self):
        with pytest.raises(ShardMergeError, match="not a shard artifact"):
            merge_shards([{"kind": "epi4tensor-search"}])

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ShardMergeError, match="no shard artifacts"):
            merge_shards(tmp_path)


class TestShardJournalGuards:
    def test_journal_meta_mismatch_refused(self, tmp_path):
        from repro.core.solution import Solution

        path = os.fspath(tmp_path / "a.journal")
        journal = RoundJournal.open(
            path, "fp", meta={"shard_index": 0, "shard_count": 2}
        )
        assert journal.completed == set()
        journal.commit(0, [Solution(score=1.0, packed=7)])
        journal.close()
        # Same fingerprint, different shard header: refused.
        with pytest.raises(JournalError, match="meta"):
            RoundJournal.open(
                path, "fp", meta={"shard_index": 1, "shard_count": 2}
            )
        # The right shard resumes its own commits.
        journal = RoundJournal.open(
            path, "fp", meta={"shard_index": 0, "shard_count": 2}
        )
        assert journal.completed == {0}
        journal.close()

    def test_shard_fingerprints_are_domain_qualified(self, tmp_path):
        dataset = _dataset()
        config = _config()
        search = Epi4TensorSearch(dataset, config)
        full = search.fingerprint()
        nb = search.scheme.nb
        plan = plan_shards(nb, 2, block_size=_BLOCK, n_samples=_N_SAMPLES)
        clauses = {
            search.fingerprint(list(shard.iterations))
            for shard in plan.shards
        }
        assert len(clauses) == 2  # distinct per shard
        assert all(c.startswith(full + "+W") for c in clauses)
        # Full-domain restriction is the identity: no clause appended.
        assert search.fingerprint(list(range(nb))) == full

    def test_worker_rejects_wrong_nb(self, tmp_path):
        dataset = _dataset()
        from repro.datasets import save_dataset

        dataset_path = os.fspath(tmp_path / "ds.npz")
        save_dataset(dataset_path, dataset)
        request = build_request(
            dataset_path=dataset_path,
            out_dir=os.fspath(tmp_path),
            shard={"index": 0, "count": 1, "iterations": [0]},
            nb=99,
            config={"block_size": _BLOCK, "top_k": _TOP_K},
        )
        with pytest.raises(ValueError, match="nb=99"):
            run_shard(request)


class TestPruneSharding:
    """Branch-and-bound cells of the shard matrix: pruned shards, each
    pruning against its own candidates only, merge to the unpruned
    unsharded digest, and artifacts stay schema-compatible with
    pre-pruning consumers."""

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_pruned_shards_match_unpruned_unsharded(self, n_shards, tmp_path):
        dataset = _dataset()
        reference = _unsharded_digest(dataset, _config(prune=False))
        merged = run_sharded(
            dataset,
            _config(prune=True),
            n_shards=n_shards,
            out_dir=tmp_path,
            inline=True,
        )
        assert merged.top_k_sha256 == reference
        assert merged.metrics.total("epi4_prune_quads_total") > 0

    def test_merge_tolerates_artifacts_without_prune_series(self, tmp_path):
        # Schema tolerance: artifacts written by pre-pruning builds carry
        # no epi4_prune_* series; the merge must accept them (zero
        # contribution), not refuse on the missing names.
        dataset = _dataset()
        merged = run_sharded(
            dataset,
            _config(prune=True),
            n_shards=2,
            out_dir=tmp_path,
            inline=True,
        )
        artifacts = []
        for index in range(2):
            with open(
                tmp_path / shard_artifact_name(index, 2), encoding="utf-8"
            ) as fh:
                artifacts.append(json.load(fh))
        for artifact in artifacts:
            for name in list(artifact["metrics"]["counters"]):
                if name.startswith("epi4_prune_"):
                    del artifact["metrics"]["counters"][name]
        stripped = merge_shards(artifacts)
        assert stripped.top_k_sha256 == merged.top_k_sha256
        assert stripped.metrics.total("epi4_prune_quads_total") == 0

    def test_merge_tolerates_mixed_prune_configs(self, tmp_path):
        # Clause-indexed identity deliberately excludes the prune knob (it
        # cannot change results): one shard run with the gate on merges
        # cleanly with one run with it off, to the same digest — and only
        # the pruned shard contributes prune counts.
        from repro.datasets import save_dataset

        dataset = _dataset()
        reference = _unsharded_digest(dataset, _config(prune=False))
        dataset_path = os.fspath(tmp_path / "ds.npz")
        save_dataset(dataset_path, dataset)
        nb = _N_SNPS // _BLOCK
        plan = plan_shards(nb, 2, block_size=_BLOCK, n_samples=_N_SAMPLES)
        artifacts = []
        for shard, prune in zip(plan.shards, (True, False)):
            out = tmp_path / f"half-{shard.index}"
            out.mkdir()
            request = build_request(
                dataset_path=dataset_path,
                out_dir=os.fspath(out),
                shard={
                    "index": shard.index,
                    "count": 2,
                    "iterations": list(shard.iterations),
                },
                nb=nb,
                config={"block_size": _BLOCK, "top_k": _TOP_K, "prune": prune},
            )
            artifacts.append(run_shard(request))
        merged = merge_shards(artifacts)
        assert merged.top_k_sha256 == reference
        assert merged.metrics.total("epi4_prune_quads_total") > 0


class TestPaddingTail:
    """A padded tail round with no mask-valid position runs its launches
    and exits scoring at ``n_valid == 0`` — accounted, never scored, and
    without perturbing a single result bit."""

    @pytest.mark.parametrize("batch_rounds", [1, 4])
    @pytest.mark.parametrize("prune", [False, True])
    def test_padding_tail_conservation(self, batch_rounds, prune):
        # 18 real SNPs padded to 24 at B=8: the (2,2,2,2) round holds
        # fewer than 4 real SNPs, so its validity mask is empty.
        dataset = generate_random_dataset(18, 96, seed=5)
        reference = Epi4TensorSearch(
            dataset, SearchConfig(block_size=8, top_k=3, prune=False)
        ).run()
        search = Epi4TensorSearch(
            dataset,
            SearchConfig(
                block_size=8,
                top_k=3,
                prune=prune,
                batch_rounds=batch_rounds,
            ),
        )
        result = search.run()
        assert result.top_solutions == reference.top_solutions
        m = search.metrics
        assert m.total("epi4_applyscore_positions_total") == (
            result.block_scheme.quads_processed
        )
        assert m.total("epi4_applyscore_valid_total") + m.total(
            "epi4_prune_quads_total"
        ) == result.block_scheme.unique_quads == math.comb(18, 4)
