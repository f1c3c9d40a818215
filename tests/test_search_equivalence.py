"""Equivalence suite: the cached multi-device hot path must be
bit-identical to the cold 1-device seed path.

The operand cache only changes *which launches execute*; running several
devices (one host thread each) only changes *which thread drives which
outer iteration*.
Neither may perturb a single result bit: ``SearchResult.solution`` and
``top_solutions`` are compared exactly (packed indices and float scores),
across engines, threading and journal resume — and against the
independent brute-force oracle of :mod:`tests.helpers`.
"""

import pytest

import repro.core.search as search_module
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.device.cluster import ScheduleResult
from repro.perfmodel.workload import search_workload
from tests.helpers import (
    assert_matches_oracle,
    brute_force_topk,
    cut_journal,
    resume_after_failure,
)


def _run(ds, n_gpus=1, **cfg):
    return Epi4TensorSearch(ds, SearchConfig(**cfg), n_gpus=n_gpus).run()


def _assert_identical(a, b):
    assert a.solution == b.solution
    assert a.top_solutions == b.top_solutions
    assert [s.packed for s in a.top_solutions] == [s.packed for s in b.top_solutions]
    assert [s.score for s in a.top_solutions] == [s.score for s in b.top_solutions]


class TestCachedEquivalence:
    @pytest.mark.parametrize("engine_kind", ["and_popc", "xor_popc"])
    def test_engine_mode_grid(self, engine_kind):
        ds = generate_random_dataset(16, 140, seed=3)
        base = dict(block_size=4, engine_kind=engine_kind, top_k=4)
        cold = _run(ds, **base)
        cached = _run(ds, cache_mb=float("inf"), **base)
        _assert_identical(cold, cached)

    def test_bounded_budget_with_evictions(self):
        # A budget far below the working set: constant churn, same bits.
        ds = generate_random_dataset(20, 160, seed=8)
        cold = _run(ds, block_size=4, top_k=3)
        tiny = _run(ds, block_size=4, top_k=3, cache_mb=0.02)
        _assert_identical(cold, tiny)
        assert tiny.cache_stats.evictions > 0

    def test_cached_counters_match_analytic_unique_volume(self):
        # Unbounded cache: executed tensor3/combine volume collapses to the
        # unique-pair totals of the analytic model (cache_operands=True).
        ds = generate_random_dataset(24, 160, seed=7)
        res = _run(ds, block_size=4, cache_mb=float("inf"))
        wl = search_workload(
            res.block_scheme.n_snps, 160, 4, cache_operands=True
        )
        raw = res.metrics.sum_by("epi4_tensor_ops_total", "kernel", form="raw")
        assert raw["tensor3"] == wl.tensor3_ops
        assert res.metrics.total("epi4_combine_bit_ops_total") == wl.combine_bit_ops
        # Round work is per-quad unique and must be unaffected.
        assert raw["tensor4"] == wl.executed_tensor4_ops

    def test_hit_rate_above_half(self):
        ds = generate_random_dataset(24, 160, seed=1)
        res = _run(ds, block_size=4, cache_mb=float("inf"))
        assert res.cache_stats.hit_rate > 0.5
        assert res.metrics.total("epi4_cache_lookups_total", result="hit") == (
            res.cache_stats.hits
        )

    def test_cache_off_matches_seed_accounting(self):
        # With the cache disabled the search executes exactly the analytic
        # workload under the per-Wi hold (the executed closed forms).
        ds = generate_random_dataset(16, 140, seed=2)
        res = _run(ds, block_size=4)
        wl = search_workload(res.block_scheme.n_snps, 140, 4)
        raw = res.metrics.sum_by("epi4_tensor_ops_total", "kernel", form="raw")
        assert raw["tensor3"] == wl.executed_tensor3_ops
        assert res.metrics.total("epi4_combine_bit_ops_total") == (
            wl.executed_combine_bit_ops
        )
        assert res.cache_stats is None
        assert res.metrics.total("epi4_cache_lookups_total") == 0
        assert res.metrics.total("epi4_operand_cache_served_total") == 0


class TestThreadedEquivalence:
    def test_threaded_matches_sequential(self):
        # 1 device runs on the calling thread; 4 devices on four threads.
        ds = generate_random_dataset(16, 140, seed=5)
        base = dict(block_size=4, top_k=5)
        seq = _run(ds, n_gpus=1, **base)
        par = _run(ds, n_gpus=4, **base)
        expected = brute_force_topk(ds, 5)
        assert_matches_oracle(seq, expected)
        assert_matches_oracle(par, expected)
        _assert_identical(seq, par)

    def test_threaded_cached_matches_cold_sequential(self):
        ds = generate_random_dataset(20, 150, seed=6)
        cold = _run(ds, block_size=4, top_k=3)
        hot = _run(
            ds, n_gpus=4, cache_mb=float("inf"),
            block_size=4, top_k=3,
        )
        _assert_identical(cold, hot)

    def test_concurrency_stress_repeated_runs(self):
        # Tiny blocks + 4 devices + small budget: maximum scheduling and
        # eviction nondeterminism.  Results must never vary.
        ds = generate_random_dataset(12, 120, seed=9)
        reference = _run(ds, block_size=2, top_k=6)
        for trial in range(5):
            res = _run(
                ds, n_gpus=4, cache_mb=0.01,
                block_size=2, top_k=6,
            )
            _assert_identical(reference, res)

    def test_executed_assignment_covers_all_iterations(self):
        ds = generate_random_dataset(16, 120, seed=0)
        res = _run(ds, n_gpus=4, block_size=4)
        nb = res.block_scheme.n_snps // 4
        flat = sorted(i for worker in res.executed_assignment for i in worker)
        assert flat == list(range(nb))
        # The realized assignment scores cleanly against uniform costs.
        sched = ScheduleResult.from_executed(
            res.executed_assignment, [1.0] * nb
        )
        assert sched.total_cost == nb

    def test_counters_merge_consistent_under_threads(self):
        # Executed work is schedule-independent: misses compute exactly once
        # (single-flight), so merged kernel counters match the unique volume.
        ds = generate_random_dataset(16, 140, seed=11)
        # prune=False: the bound gate's zero-survivor early exits skip
        # completion work as a function of threshold timing, which is
        # schedule-dependent (results stay identical; counters do not).
        seq = _run(ds, block_size=4, cache_mb=float("inf"), prune=False)
        par = _run(
            ds,
            n_gpus=4,
            cache_mb=float("inf"),
            block_size=4,
            prune=False,
        )
        for name, match in (
            ("epi4_tensor_ops_total", {"form": "raw", "kernel": "tensor3"}),
            ("epi4_combine_bit_ops_total", {}),
        ):
            assert par.metrics.total(name, **match) == seq.metrics.total(
                name, **match
            )
        assert par.cache_stats.misses == seq.cache_stats.misses


class TestCheckpointResume:
    def test_resume_with_cache_and_threads(self, tmp_path):
        ds = generate_random_dataset(16, 130, seed=12)
        base = dict(block_size=4, top_k=3, cache_mb=float("inf"))
        path = tmp_path / "run.journal"

        # First attempt on four device threads (the fingerprint pins
        # n_gpus — resuming under a different device count is refused by
        # design), then simulate pre-emption by cutting the journal back
        # to its first two commits.
        search = Epi4TensorSearch(ds, SearchConfig(**base), n_gpus=4)
        full = search.run(journal_path=str(path))
        kept = cut_journal(path, 2)

        # Resume (threaded + cached) from the cut journal.
        resumed = Epi4TensorSearch(ds, SearchConfig(**base), n_gpus=4).run(
            journal_path=str(path)
        )
        assert_matches_oracle(resumed, brute_force_topk(ds, 3))
        _assert_identical(full, resumed)
        rerun = sorted(wi for dev in resumed.executed_assignment for wi in dev)
        assert rerun == sorted(set(range(resumed.block_scheme.nb)) - set(kept))

    def test_progress_callback_threadsafe(self):
        ds = generate_random_dataset(12, 120, seed=13)
        seen = []
        lockless_best = []

        def cb(done, total, best):
            seen.append((done, total))
            lockless_best.append(best.score)

        res = Epi4TensorSearch(
            ds,
            SearchConfig(block_size=4, cache_mb=float("inf")),
            n_gpus=4,
        ).run(progress_callback=cb)
        counts = [d for d, _ in seen]
        assert sorted(counts) == list(range(1, len(seen) + 1))
        assert len(seen) == seen[0][1]  # one callback per round
        assert min(lockless_best) == res.best_score


class TestFusedScorePathEquivalence:
    """The fused applyScore (mask-first compaction + staged scorer +
    cross-round triplet reuse) must match the brute-force oracle, and be
    bit-identical with or without the operand cache or chunking, and
    after a failed launch is resumed from the journal.
    """

    @pytest.mark.parametrize("engine_kind", ["and_popc", "xor_popc"])
    def test_oracle_matches_fused_grid(self, engine_kind):
        ds = generate_random_dataset(14, 120, seed=17)
        base = dict(block_size=4, engine_kind=engine_kind, top_k=4)
        fused = _run(ds, cache_mb=float("inf"), **base)
        assert_matches_oracle(fused, brute_force_topk(ds, 4))

    def test_tiny_chunks_match_default(self, monkeypatch):
        # One position per scoring chunk: every device workspace holds a
        # single position, and the search is still bit-identical.
        ds = generate_random_dataset(16, 120, seed=6)
        default = _run(ds, block_size=4, top_k=3)
        monkeypatch.setattr(search_module, "CHUNK_POSITIONS", 1)
        tiny = _run(ds, block_size=4, top_k=3)
        _assert_identical(default, tiny)

    def test_full3_executions_collapse_to_unique_triples(self):
        # Unbounded cache, no padding, B >= 4: every completed third-order
        # table is computed exactly once per class per unique block triple
        # (instead of once per round that reads it), and the request
        # invariant holds for the new operand kind.
        from repro.perfmodel.workload import (
            round_triplet_requests,
            unique_block_triples,
        )

        ds = generate_random_dataset(16, 120, seed=12)
        search = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, cache_mb=float("inf"), prune=False)
        )
        search.run()
        m = search.metrics
        nb = search.scheme.nb
        req = m.total("epi4_operand_requests_total", kind="full3")
        exe = m.total("epi4_operand_executed_total", kind="full3")
        srv = m.total("epi4_operand_cache_served_total", kind="full3")
        assert req == exe + srv
        assert exe == 2 * unique_block_triples(nb)
        # Without the cross-round cache, every round recompletes the
        # (locally deduped) triplets its derived cells read — strictly
        # more executions, and no wxy triplet among them.
        search_off = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, cache_mb=None, prune=False)
        )
        search_off.run()
        exe_off = search_off.metrics.total(
            "epi4_operand_executed_total", kind="full3"
        )
        assert exe_off == 2 * round_triplet_requests(nb)
        assert exe_off > exe
        assert search_off.metrics.total(
            "epi4_operand_cache_served_total", kind="full3"
        ) == 0

    def test_compaction_metrics_match_scheme(self):
        ds = generate_random_dataset(20, 120, seed=3)
        search = Epi4TensorSearch(ds, SearchConfig(block_size=4, prune=False))
        res = search.run()
        m = search.metrics
        scheme = res.block_scheme
        assert m.total("epi4_applyscore_positions_total") == (
            scheme.quads_processed
        )
        assert m.total("epi4_applyscore_valid_total") == (
            scheme.unique_quads
        )
        assert m.value("epi4_applyscore_compaction_ratio") == (
            pytest.approx(scheme.useful_fraction)
        )
        # Executed score cells follow the compacted volume.
        assert m.total("epi4_score_cells_total") == scheme.unique_quads * 81 * 2


    def test_fused_paths_match_under_faults(self, monkeypatch, tmp_path):
        # A launch fails half-way through a cached run; the resume starts
        # with an empty cache and still matches the brute-force oracle.
        ds = generate_random_dataset(16, 120, seed=21)
        config = SearchConfig(block_size=4, top_k=3, cache_mb=float("inf"))
        fused = resume_after_failure(
            monkeypatch,
            lambda: Epi4TensorSearch(ds, config),
            tmp_path / "search.journal",
            at=35,
        )
        assert_matches_oracle(fused, brute_force_topk(ds, 3))


class TestSatelliteFixes:
    def test_quads_per_second_scaled_zero_wall(self):
        # Satellite: a zero wall clock must yield 0.0, not inf.
        ds = generate_random_dataset(8, 100, seed=14)
        res = _run(ds, block_size=4)
        res.wall_seconds = 0.0
        assert res.quads_per_second_scaled == 0.0

    def test_run_device_removed(self):
        assert not hasattr(Epi4TensorSearch, "_run_device")


class TestPruneEquivalence:
    """Branch-and-bound pruning is a pure work eliminator: every cell of
    the configuration matrix must produce *bit-identical* results with the
    gate on and off — engines, batching, threading, resume and rounds
    a failed launch cut short included — and must match the brute-force
    oracle."""

    @pytest.mark.parametrize("engine_kind", ["and_popc", "xor_popc"])
    def test_engine_mode_grid(self, engine_kind):
        ds = generate_random_dataset(16, 140, seed=3)
        base = dict(block_size=4, engine_kind=engine_kind, top_k=4)
        off = _run(ds, prune=False, **base)
        on = _run(ds, prune=True, **base)
        _assert_identical(off, on)

    def test_gate_actually_fires(self):
        ds = generate_random_dataset(16, 140, seed=3)
        search = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, top_k=4, prune=True)
        )
        search.run()
        assert search.metrics.total("epi4_prune_quads_total") > 0

    @pytest.mark.parametrize(
        "extra",
        [
            dict(batch_rounds=8),
            dict(batch_rounds=8, n_streams=2),
            dict(batch_rounds=1, n_streams=3),
            dict(batch_rounds=8, cache_mb=float("inf")),
            dict(),
        ],
        ids=["batched", "batched-streams", "streams", "batched-cached",
             "default"],
    )
    def test_pipeline_variants(self, extra):
        ds = generate_random_dataset(16, 140, seed=13)
        base = dict(block_size=4, top_k=3)
        off = _run(ds, prune=False, **base)
        on = _run(ds, prune=True, **base, **extra)
        _assert_identical(off, on)
        assert_matches_oracle(on, brute_force_topk(ds, 3))

    def test_threaded_pruned_matches_sequential_unpruned(self):
        ds = generate_random_dataset(16, 140, seed=5)
        base = dict(block_size=4, top_k=5)
        off = _run(ds, n_gpus=1, prune=False, **base)
        for trial in range(3):
            on = _run(ds, n_gpus=4, prune=True, **base)
            _assert_identical(off, on)

    def test_resume_with_pruning(self, tmp_path):
        ds = generate_random_dataset(16, 130, seed=12)
        base = dict(block_size=4, top_k=3, prune=True)
        reference = _run(ds, block_size=4, top_k=3, prune=False)
        path = tmp_path / "run.journal"
        search = Epi4TensorSearch(ds, SearchConfig(**base))
        search.run(journal_path=str(path))
        cut_journal(path, 2)
        # The resumed run warm-starts its reducer from the journal's
        # partial top-k — the prune threshold starts tight, not at +inf —
        # and must still reproduce the unpruned result bit for bit.
        resumed = Epi4TensorSearch(ds, SearchConfig(**base)).run(
            journal_path=str(path)
        )
        _assert_identical(reference, resumed)

    @pytest.mark.parametrize("fault_seed", [0, 1, 2])
    def test_fault_degraded_rounds_keep_identity(
        self, fault_seed, monkeypatch, tmp_path
    ):
        # A failed 4-way launch (first, middle or last of 70) cuts a round
        # short; the resume re-runs its iteration with the gate on, and
        # the result stays bit-identical to the ungated run.
        ds = generate_random_dataset(16, 120, seed=21)
        off = _run(ds, block_size=4, top_k=3, prune=False)
        config = SearchConfig(
            block_size=4, top_k=3, prune=True, cache_mb=float("inf")
        )
        on = resume_after_failure(
            monkeypatch,
            lambda: Epi4TensorSearch(ds, config),
            tmp_path / "search.journal",
            at=1 + 34 * fault_seed,
        )
        _assert_identical(off, on)
