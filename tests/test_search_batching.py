"""Batched-GEMM round pipeline: fusion, staging and launch accounting.

Three layers under test:

- the engine batch primitive (``matmul_popcount_batch``): stacked launches
  must be bit-identical to per-pair GEMMs, across engines and modes, and
  must record the fused problem count on their :class:`GemmShape`;
- the search pipeline (``batch_rounds`` / ``n_streams``):
  every configuration must reproduce the sequential seed results exactly —
  across devices, through journal resume and after a failed launch;
- the accounting: executed launch counts must match the analytic closed
  forms of :func:`repro.perfmodel.workload.search_gemm_launches`, while
  per-problem totals (``gemm_problems``) stay batch-invariant, and the
  operand ledger ``requests == executed + cache_served`` must hold under
  batching, and with nothing pruned the operand cache's resident peak
  must equal its §3.3 memory charge at every batch width.
"""

import numpy as np
import pytest

from repro.bitops.bitmatrix import BitMatrix
from repro.bitops.popcount import _popcount_u64_lut, popcount_u64
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.device.memory import estimate_search_memory
from repro.device.streams import HostStream, stage_lookahead
from repro.perfmodel.model import predict_search
from repro.perfmodel.workload import search_gemm_launches, search_workload
from repro.tensor.engine import make_engine
from tests.helpers import cut_journal, resume_after_failure


def _run(ds, n_gpus=1, **cfg):
    search = Epi4TensorSearch(ds, SearchConfig(**cfg), n_gpus=n_gpus)
    return search, search.run()


def _solutions(result):
    return [(s.packed, s.score) for s in result.top_solutions]


def _rand_bits(rng, rows, bits):
    words = (bits + 63) // 64
    data = rng.integers(0, 2**63, size=(rows, words), dtype=np.uint64)
    if bits % 64:
        data[:, -1] &= (np.uint64(1) << np.uint64(bits % 64)) - np.uint64(1)
    return BitMatrix(data=data, n_bits=bits)


# --------------------------------------------------------------------- #
# Engine batch primitive


class TestMatmulPopcountBatch:
    @pytest.mark.parametrize("kind", ["and_popc", "xor_popc"])
    @pytest.mark.parametrize("mode", ["dense", "packed"])
    def test_bit_identical_to_per_pair(self, kind, mode):
        rng = np.random.default_rng(11)
        engine = make_engine(kind, mode=mode)
        a = _rand_bits(rng, 12, 130)
        rights = [_rand_bits(rng, r, 130) for r in (5, 9, 3)]
        # Shared left (fused), then a singleton with its own operands.
        other = (_rand_bits(rng, 4, 130), _rand_bits(rng, 6, 130))
        pairs = [(a, r) for r in rights] + [other]
        batched = engine.matmul_popcount_batch(pairs)
        engine.reset_shapes()
        for got, (x, y) in zip(batched, pairs):
            np.testing.assert_array_equal(got, engine.matmul_popcount(x, y))

    @pytest.mark.parametrize("kind", ["and_popc", "xor_popc"])
    def test_shared_right_stacks_lefts(self, kind):
        rng = np.random.default_rng(12)
        engine = make_engine(kind)
        b = _rand_bits(rng, 7, 192)
        lefts = [_rand_bits(rng, r, 192) for r in (4, 8)]
        batched = engine.matmul_popcount_batch([(left, b) for left in lefts])
        shapes = list(engine.last_shapes)
        engine.reset_shapes()
        assert [s.batch for s in shapes] == [2]
        assert shapes[0].m == sum(left.n_rows for left in lefts)
        for got, left in zip(batched, lefts):
            np.testing.assert_array_equal(
                got, engine.matmul_popcount(left, b)
            )

    def test_recorded_batch_counts(self):
        rng = np.random.default_rng(13)
        engine = make_engine("and_popc")
        a = _rand_bits(rng, 6, 64)
        rights = [_rand_bits(rng, 4, 64) for _ in range(5)]
        engine.matmul_popcount_batch([(a, r) for r in rights])
        assert [s.batch for s in engine.last_shapes] == [5]
        # fused_ops of the stacked launch covers all members.
        assert engine.last_shapes[0].n == 20

    def test_never_fuses_across_bit_widths(self):
        rng = np.random.default_rng(14)
        engine = make_engine("and_popc")
        a64 = _rand_bits(rng, 6, 64)
        r64 = _rand_bits(rng, 4, 64)
        a128 = _rand_bits(rng, 6, 128)
        r128 = _rand_bits(rng, 4, 128)
        with pytest.raises(ValueError):
            BitMatrix.vstack([r64, r128])
        out = engine.matmul_popcount_batch([(a64, r64), (a128, r128)])
        assert len(out) == 2
        assert all(s.batch == 1 for s in engine.last_shapes)


# --------------------------------------------------------------------- #
# Search pipeline bit-identity


GRID = [
    dict(batch_rounds=8),
    dict(batch_rounds=8, n_streams=2),
    dict(batch_rounds=1, n_streams=3),
    dict(batch_rounds=8, cache_mb=float("inf")),
]


class TestPipelineBitIdentity:
    @pytest.mark.parametrize("engine_kind", ["and_popc", "xor_popc"])
    def test_engine_mode_grid(self, engine_kind):
        ds = generate_random_dataset(16, 120, seed=21)
        base = dict(block_size=4, engine_kind=engine_kind, top_k=4)
        _, ref = _run(ds, **base)
        for extra in GRID:
            _, got = _run(ds, **base, **extra)
            assert _solutions(got) == _solutions(ref), extra

    def test_multi_device_threaded_overlap(self):
        ds = generate_random_dataset(20, 128, seed=22)
        _, ref = _run(ds, block_size=4, top_k=3)
        _, got = _run(
            ds,
            n_gpus=2,
            block_size=4,
            top_k=3,
            batch_rounds=8,
            n_streams=2,
        )
        assert _solutions(got) == _solutions(ref)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_under_fault_injection(self, seed, monkeypatch, tmp_path):
        # A fused 4-way launch fails (first, middle or last of 22); the
        # journal resume of the pipelined run reproduces the sequential one.
        ds = generate_random_dataset(16, 120, seed=24)
        _, ref = _run(ds, block_size=4, top_k=3)
        config = SearchConfig(
            block_size=4, top_k=3, batch_rounds=8, n_streams=2
        )
        got = resume_after_failure(
            monkeypatch,
            lambda: Epi4TensorSearch(ds, config),
            tmp_path / "search.journal",
            at=1 + 10 * seed,
        )
        assert _solutions(got) == _solutions(ref)

    def test_checkpoint_resume(self, tmp_path):
        ds = generate_random_dataset(16, 120, seed=25)
        base = dict(block_size=4, top_k=3, batch_rounds=8, n_streams=2)
        path = tmp_path / "batched.journal"
        search = Epi4TensorSearch(ds, SearchConfig(**base))
        full = search.run(journal_path=path)
        assert full.metrics.total("epi4_journal_commits_total") == 4
        # Rewind to two committed iterations and resume.
        assert cut_journal(path, 2) == [0, 1]
        resumed = Epi4TensorSearch(ds, SearchConfig(**base)).run(
            journal_path=path
        )
        assert resumed.executed_assignment == [[2, 3]]
        assert _solutions(resumed) == _solutions(full)
        # A resumed batched run also matches the sequential reference.
        _, ref = _run(ds, block_size=4, top_k=3)
        assert _solutions(resumed) == _solutions(ref)


# --------------------------------------------------------------------- #
# Launch accounting


class TestLaunchAccounting:
    @pytest.mark.parametrize("batch", [1, 4, 8])
    def test_launches_match_closed_forms(self, batch):
        # Pruning on (the default) and staged inline or ahead on a host
        # stream: sweeps are always staged eagerly, so the closed forms
        # hold for every stream count.
        ds = generate_random_dataset(24, 128, seed=31)
        for n_streams in (1, 2):
            _, res = _run(
                ds,
                block_size=4,
                batch_rounds=batch,
                n_streams=n_streams,
                prune=True,
            )
            nb = res.block_scheme.n_snps // 4
            expected = search_gemm_launches(nb, batch_rounds=batch)
            for kernel in ("tensor3", "tensor4"):
                launches = res.metrics.total(
                    "epi4_kernel_launches_total", kernel=kernel
                )
                assert launches == expected[kernel], (
                    kernel,
                    n_streams,
                )
            # Logical problem totals are batch-invariant and equal the
            # launch-per-problem seed counts.
            seed_launches = search_gemm_launches(nb, batch_rounds=1)
            assert (
                res.metrics.total("epi4_gemm_problems_total", kernel="tensor4")
                == seed_launches["tensor4"]
            )

    @pytest.mark.parametrize("cache_mb", [None, float("inf")])
    @pytest.mark.parametrize("n_gpus", [1, 2])
    @pytest.mark.parametrize("n_streams", [1, 2])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_held_sweeps_match_executed_closed_forms(
        self, batch, n_streams, n_gpus, cache_mb
    ):
        # Each Wi holds its sweeps: tensor3 launches and the executed
        # tensor3 and combine volumes equal the executed closed forms
        # exactly, with or without the cache behind the hold.
        ds = generate_random_dataset(16, 120, seed=34)
        _, res = _run(
            ds,
            n_gpus=n_gpus,
            block_size=4,
            batch_rounds=batch,
            n_streams=n_streams,
            cache_mb=cache_mb,
            prune=False,
        )
        nb = res.block_scheme.nb
        cached = cache_mb is not None
        m = res.metrics
        launches = search_gemm_launches(
            nb, batch_rounds=batch, cache_operands=cached
        )
        assert m.total("epi4_kernel_launches_total", kernel="tensor3") == (
            launches["tensor3"]
        )
        wl = search_workload(16, 120, 4, cache_operands=cached)
        assert m.total(
            "epi4_tensor_ops_total", form="raw", kernel="tensor3"
        ) == wl.executed_tensor3_ops
        assert m.total("epi4_combine_bit_ops_total") == (
            wl.executed_combine_bit_ops
        )

    def test_cached_launches_match_closed_forms(self):
        ds = generate_random_dataset(24, 128, seed=31)
        _, res = _run(ds, block_size=4, batch_rounds=8, cache_mb=float("inf"))
        nb = res.block_scheme.n_snps // 4
        expected = search_gemm_launches(nb, batch_rounds=8, cache_operands=True)
        launches = res.metrics.sum_by("epi4_kernel_launches_total", "kernel")
        assert launches["tensor4"] == expected["tensor4"]
        assert launches["tensor3"] == expected["tensor3"]

    def test_overlap_only_uses_paired_sweeps(self):
        # batch_rounds=1 staged ahead on a host stream (the former
        # overlap-only configuration): sweeps are no longer paired, so the
        # launch counts are the plain launch-per-problem closed forms.
        ds = generate_random_dataset(16, 120, seed=32)
        _, res = _run(ds, block_size=4, batch_rounds=1, n_streams=2)
        nb = res.block_scheme.n_snps // 4
        expected = search_gemm_launches(nb, batch_rounds=1)
        m = res.metrics
        launches = m.sum_by("epi4_kernel_launches_total", "kernel")
        assert launches["tensor3"] == expected["tensor3"]
        assert launches["tensor4"] == expected["tensor4"]
        assert m.total("epi4_gemm_problems_total", kernel="tensor4") == expected["tensor4"]

    def test_launch_collapse_at_least_4x(self):
        nb = 12
        # tensor4 — the dominant kernel — collapses 6.5x at batch=8.
        seed = search_gemm_launches(nb, batch_rounds=1)
        batched = search_gemm_launches(nb, batch_rounds=8)
        assert seed["tensor4"] / batched["tensor4"] >= 4.0
        # With the operand cache on (tensor3 launches already minimal),
        # the *total* launch count also collapses >= 4x.
        seed_c = search_gemm_launches(nb, batch_rounds=1, cache_operands=True)
        batch_c = search_gemm_launches(nb, batch_rounds=8, cache_operands=True)
        assert sum(seed_c.values()) / sum(batch_c.values()) >= 4.0

    def test_operand_ledger_property(self):
        # requests == executed + cache_served, per operand kind, with and
        # without the cache, under batching + staging ahead.
        ds = generate_random_dataset(20, 128, seed=33)
        for cache_mb in (None, float("inf")):
            search, _ = _run(
                ds,
                block_size=4,
                batch_rounds=8,
                n_streams=2,
                cache_mb=cache_mb,
            )
            m = search.metrics
            for kind in ("combine", "sweep"):
                req = m.total("epi4_operand_requests_total", kind=kind)
                execd = m.total("epi4_operand_executed_total", kind=kind)
                served = m.total("epi4_operand_cache_served_total", kind=kind)
                assert req == execd + served, (cache_mb, kind)
                assert req > 0

    def test_gemm_metrics_exported(self):
        ds = generate_random_dataset(16, 120, seed=34)
        search, res = _run(ds, block_size=4, batch_rounds=8, n_streams=2)
        m = search.metrics
        assert m.total("epi4_gemm_launches_total", kernel="tensor4") == \
            res.metrics.total("epi4_kernel_launches_total", kernel="tensor4")
        assert m.total("epi4_gemm_problems_total", kernel="tensor4") == \
            res.metrics.total("epi4_gemm_problems_total", kernel="tensor4")
        # The overlap series exists (the stager may or may not have won
        # measurable overlap on a tiny workload, but the series records).
        assert "epi4_stage_overlap_seconds_total" in m.names()

    def test_stage_spans_recorded(self):
        from repro.obs.trace import Tracer

        ds = generate_random_dataset(16, 120, seed=35)
        tracer = Tracer()
        search = Epi4TensorSearch(
            ds,
            SearchConfig(block_size=4, batch_rounds=8, n_streams=2),
            tracer=tracer,
        )
        search.run()
        names = {r.name for r in tracer.records()}
        assert "stage" in names
        assert "round" in names
        # Stage spans parent under their outer iteration.
        stage_paths = {
            r.path for r in tracer.records() if r.name == "stage"
        }
        assert stage_paths and all("outer" in p for p in stage_paths)


# --------------------------------------------------------------------- #
# Satellites: popcount scratch, host stream, memory, model


class TestPopcountScratch:
    def test_lut_matches_reference(self):
        rng = np.random.default_rng(41)
        words = rng.integers(0, 2**63, size=(37, 5), dtype=np.uint64)
        np.testing.assert_array_equal(
            _popcount_u64_lut(words), popcount_u64(words)
        )

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(42)
        words = rng.integers(0, 2**63, size=(16, 8), dtype=np.uint64)
        view = words[::2, 1::2]
        np.testing.assert_array_equal(
            _popcount_u64_lut(view), popcount_u64(np.ascontiguousarray(view))
        )

    def test_scratch_reused_not_reallocated(self):
        from repro.bitops import popcount as pc

        a = np.ones((8, 4), dtype=np.uint64)
        _popcount_u64_lut(a)
        buf1 = pc._LUT_SCRATCH.buf
        _popcount_u64_lut(a)
        assert pc._LUT_SCRATCH.buf is buf1  # same buffer, no churn
        _popcount_u64_lut(np.ones((64, 64), dtype=np.uint64))
        assert pc._LUT_SCRATCH.buf.size >= 64 * 64 * 8


class TestHostStream:
    def test_in_order_execution(self):
        order = []
        with HostStream("test-stream") as stream:
            futures = [
                stream.submit(lambda i=i: order.append(i)) for i in range(20)
            ]
            for f in futures:
                f.result()
        assert order == list(range(20))

    def test_exception_propagates(self):
        with HostStream() as stream:
            future = stream.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result()

    @pytest.mark.parametrize(
        "n_streams,expected", [(1, 0), (2, 1), (3, 2), (5, 4), (99, 4)]
    )
    def test_stage_lookahead(self, n_streams, expected):
        assert stage_lookahead(n_streams) == expected


class TestModelAndMemory:
    def test_memory_estimate_charges_stager(self):
        base = estimate_search_memory(32, 64, 64, 8)
        batched = estimate_search_memory(32, 64, 64, 8, batch_rounds=8)
        assert "round stager" not in base.components
        assert batched.components["round stager"] > 0
        assert batched.total_bytes > base.total_bytes

    def test_predict_search_launch_overhead(self):
        spec_kwargs = dict(n_snps=256, n_samples=4096, block_size=32)
        from repro.device.specs import A100_PCIE

        flat = predict_search(A100_PCIE, **spec_kwargs)
        taxed = predict_search(
            A100_PCIE, **spec_kwargs, launch_overhead_us=5.0
        )
        batched = predict_search(
            A100_PCIE, **spec_kwargs, batch_rounds=16, launch_overhead_us=5.0
        )
        assert flat.launch_seconds == 0.0
        assert taxed.launch_seconds > 0
        assert taxed.seconds > flat.seconds
        assert batched.gemm_launches < taxed.gemm_launches
        assert batched.launch_seconds < taxed.launch_seconds
        # FLOP time is invariant; only the launch tax moves.
        assert taxed.workload.tensor_ops == batched.workload.tensor_ops

    def test_gemm_problems_invariant(self):
        for nb in (3, 5, 12):
            seed = search_gemm_launches(nb, batch_rounds=1)
            for batch in (2, 4, 16):
                batched = search_gemm_launches(nb, batch_rounds=batch)
                assert batched["tensor4"] <= seed["tensor4"]
                assert batched["tensor3"] <= seed["tensor3"]


class TestCacheResidentBytes:
    @pytest.mark.parametrize("batch", [1, 8])
    def test_peak_equals_memory_charge(self, batch):
        """The cache holds packed operands, sweeps and completed triplets
        only, whatever the batching: with nothing pruned every one of them
        is computed, so the resident peak is exactly the §3.3 ``operand
        cache`` charge the up-front fit check made."""
        ds = generate_random_dataset(16, 120, seed=53)
        search, result = _run(
            ds,
            block_size=4,
            cache_mb=float("inf"),
            batch_rounds=batch,
            prune=False,
        )
        assert (
            result.cache_stats.peak_bytes
            == search.memory_estimate.components["operand cache"]
        )
