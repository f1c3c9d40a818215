"""Property-based fuzz suite (hypothesis, profile ``repro``).

Three invariant families, per the observability-PR test plan:

1.  **Table correctness** — for random datasets and SNP tuples, the 81-cell
    (and lower-order) contingency tables produced by the independent
    bitwise path sum to ``N`` per phenotype class and match the naive
    dense-histogram baseline cell for cell.

2.  **Inclusion–exclusion identities** — completing a ``{0,1}^k`` corner
    with its full ``(k-1)``-order marginals (paper §3.3) recovers the
    ground-truth ``(3,)*k`` table exactly, for every order ``k in 1..4``
    and under batching; marginalizing the completed table returns the
    marginals it was built from.

3.  **Metrics invariants** — the observability counters obey their
    conservation laws under arbitrary access patterns and real runs:
    ``hits + misses == lookups`` for the operand cache,
    ``requests == executed + cache_served`` for operand accounting, and
    recorded child-span time never exceeds the enclosing span's duration.

All strategies keep problem sizes tiny (``M <= 12``, ``N <= 96``) so the
40-example ``repro`` profile stays inside tier-1 time budgets.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.contingency.brute_force import (
    contingency_table,
    contingency_tables_by_class,
)
from repro.contingency.complete import (
    complete_pair,
    complete_quad,
    complete_single,
    complete_tables,
    complete_triple,
)
from repro.contingency.tables import marginalize, validate_table
from repro.core.operand_cache import OperandCache
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.core.selfcheck import direct_quad_tables
from repro.datasets import Dataset, encode_dataset
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

pytestmark = pytest.mark.property

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #


@st.composite
def datasets(draw, min_snps: int = 4, max_snps: int = 10):
    """A tiny random case-control dataset with both classes non-empty."""
    m = draw(st.integers(min_snps, max_snps))
    n = draw(st.integers(8, 96))
    genotypes = draw(
        hnp.arrays(np.int8, (m, n), elements=st.integers(0, 2))
    )
    n_cases = draw(st.integers(1, n - 1))
    phenotypes = np.zeros(n, dtype=np.bool_)
    phenotypes[:n_cases] = True
    return Dataset(genotypes=genotypes, phenotypes=phenotypes)


@st.composite
def dataset_and_quad(draw):
    ds = draw(datasets())
    quad = tuple(
        draw(
            st.lists(
                st.integers(0, ds.n_snps - 1),
                min_size=4,
                max_size=4,
                unique=True,
            )
        )
    )
    return ds, quad


def genotype_rows(order: int, max_batch: int = 3):
    """``(batch?, order, n)`` genotype rows for direct table construction."""
    return st.integers(4, 48).flatmap(
        lambda n: hnp.arrays(
            np.int8, (order, n), elements=st.integers(0, 2)
        )
    )


# --------------------------------------------------------------------- #
# 1. Table correctness: bitwise path == naive histogram, sums == N
# --------------------------------------------------------------------- #


class TestTableCorrectness:
    @given(dataset_and_quad())
    def test_direct_quad_tables_match_naive_baseline(self, ds_quad):
        ds, quad = ds_quad
        encoded = encode_dataset(ds)
        direct0, direct1 = direct_quad_tables(encoded, quad)
        naive0, naive1 = contingency_tables_by_class(ds, quad)
        np.testing.assert_array_equal(direct0, naive0)
        np.testing.assert_array_equal(direct1, naive1)

    @given(dataset_and_quad())
    def test_tables_sum_to_class_sizes(self, ds_quad):
        ds, quad = ds_quad
        t0, t1 = direct_quad_tables(encode_dataset(ds), quad)
        assert int(t0.sum()) == ds.n_controls
        assert int(t1.sum()) == ds.n_cases
        validate_table(t0, order=4, total=ds.n_controls)
        validate_table(t1, order=4, total=ds.n_cases)

    @given(genotype_rows(order=3))
    def test_histogram_total_is_sample_count(self, rows):
        table = contingency_table(rows)
        assert int(table.sum()) == rows.shape[1]
        validate_table(table, order=3, total=rows.shape[1])

    @given(genotype_rows(order=4), st.integers(0, 3))
    def test_marginalizing_drops_exactly_one_snp(self, rows, axis):
        full = contingency_table(rows)
        kept = [i for i in range(4) if i != axis]
        expected = contingency_table(rows[kept])
        np.testing.assert_array_equal(
            marginalize(full, axis, order=4), expected
        )

    @given(dataset_and_quad())
    def test_permutation_equivariance(self, ds_quad):
        """Permuting the quad permutes the table axes identically."""
        ds, quad = ds_quad
        encoded = encode_dataset(ds)
        t0, t1 = direct_quad_tables(encoded, quad)
        perm = (2, 0, 3, 1)
        permuted_quad = tuple(quad[p] for p in perm)
        p0, p1 = direct_quad_tables(encoded, permuted_quad)
        np.testing.assert_array_equal(p0, np.transpose(t0, perm))
        np.testing.assert_array_equal(p1, np.transpose(t1, perm))


# --------------------------------------------------------------------- #
# 2. Inclusion–exclusion: corner + marginals recovers the full table
# --------------------------------------------------------------------- #


def _full_and_parts(rows: np.ndarray, order: int):
    """Ground-truth full table, its {0,1}^k corner and its marginals."""
    full = contingency_table(rows)
    corner = full[(slice(0, 2),) * order]
    if order == 1:
        marginals = [np.asarray(rows.shape[1], dtype=np.int64)]
    else:
        marginals = [marginalize(full, ax, order) for ax in range(order)]
    return full, corner, marginals


class TestInclusionExclusion:
    @given(genotype_rows(order=1))
    def test_order1_identity(self, rows):
        full, corner, _ = _full_and_parts(rows, 1)
        np.testing.assert_array_equal(
            complete_single(corner, rows.shape[1]), full
        )

    @given(genotype_rows(order=2))
    def test_order2_identity(self, rows):
        full, corner, _ = _full_and_parts(rows, 2)
        single_a = contingency_table(rows[:1]).reshape(3)
        single_b = contingency_table(rows[1:]).reshape(3)
        np.testing.assert_array_equal(
            complete_pair(corner, single_a, single_b), full
        )

    @given(genotype_rows(order=3))
    def test_order3_identity(self, rows):
        full, corner, _ = _full_and_parts(rows, 3)
        pairs = [
            contingency_table(rows[list(ij)])
            for ij in itertools.combinations(range(3), 2)
        ]
        np.testing.assert_array_equal(
            complete_triple(corner, *pairs), full
        )

    @given(genotype_rows(order=4))
    def test_order4_identity(self, rows):
        full, corner, _ = _full_and_parts(rows, 4)
        triples = [
            contingency_table(rows[list(ijk)])
            for ijk in itertools.combinations(range(4), 3)
        ]
        np.testing.assert_array_equal(
            complete_quad(corner, *triples), full
        )

    @given(genotype_rows(order=4), st.integers(1, 4))
    def test_generic_completion_every_order(self, rows, order):
        full, corner, marginals = _full_and_parts(rows[:order], order)
        out = complete_tables(corner, marginals, order)
        np.testing.assert_array_equal(out, full)
        validate_table(out, order, total=rows.shape[1])

    @given(genotype_rows(order=3), st.integers(0, 2))
    def test_completed_table_marginalizes_back(self, rows, axis):
        full, corner, marginals = _full_and_parts(rows, 3)
        out = complete_tables(corner, marginals, 3)
        np.testing.assert_array_equal(
            marginalize(out, axis, 3), marginals[axis]
        )

    @given(st.integers(2, 5), genotype_rows(order=2))
    def test_batched_completion_matches_per_item(self, batch, rows):
        """A stacked batch completes to the stack of per-item completions."""
        full, corner, marginals = _full_and_parts(rows, 2)
        bc = np.broadcast_to(corner, (batch,) + corner.shape)
        bm = [np.broadcast_to(m, (batch,) + m.shape) for m in marginals]
        out = complete_tables(bc, bm, 2)
        assert out.shape == (batch, 3, 3)
        for i in range(batch):
            np.testing.assert_array_equal(out[i], full)

    def test_validate_table_rejects_negative_and_bad_total(self):
        bad = np.zeros((3, 3), dtype=np.int64)
        bad[0, 0] = -1
        with pytest.raises(ValueError, match="negative"):
            validate_table(bad, order=2)
        with pytest.raises(ValueError, match="do not all equal"):
            validate_table(np.zeros((3,), dtype=np.int64), order=1, total=5)


# --------------------------------------------------------------------- #
# 3. Metrics conservation laws
# --------------------------------------------------------------------- #


class TestCacheConservation:
    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=200),
        st.sampled_from([0.001, 0.01, float("inf")]),
    )
    def test_hits_plus_misses_equals_lookups(self, keys, cap_mb):
        cache = OperandCache(cap_mb * 1e6 if cap_mb != float("inf") else cap_mb)
        for key in keys:
            cache.get_or_compute(key, lambda: np.zeros(64, dtype=np.int64))
        stats = cache.stats
        assert stats.hits + stats.misses == len(keys)
        registry = MetricsRegistry()
        stats.export_metrics(registry)
        assert registry.total("epi4_cache_lookups_total") == len(keys)
        assert registry.total(
            "epi4_cache_lookups_total", result="hit"
        ) == stats.hits
        assert registry.total(
            "epi4_cache_lookups_total", result="miss"
        ) == stats.misses

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=100))
    def test_unbounded_cache_misses_equal_unique_keys(self, keys):
        cache = OperandCache(float("inf"))
        for key in keys:
            cache.get_or_compute(key, lambda: np.zeros(8, dtype=np.int64))
        assert cache.stats.misses == len(set(keys))
        assert cache.stats.evictions == 0

    @given(st.lists(st.integers(0, 4), min_size=8, max_size=64))
    @settings(max_examples=10)
    def test_conservation_holds_under_threads(self, keys):
        cache = OperandCache(float("inf"))
        n_threads = 4

        def worker():
            for key in keys:
                cache.get_or_compute(
                    key, lambda: np.zeros(8, dtype=np.int64)
                )

        threads = [
            threading.Thread(target=worker) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats
        assert stats.hits + stats.misses == n_threads * len(keys)
        # Single-flight: unique keys computed at most once each... exactly
        # once with an unbounded cache.
        assert stats.misses == len(set(keys))


class TestSearchConservation:
    @given(
        seed=st.integers(0, 2**16),
        cache_mb=st.sampled_from([None, 2]),
    )
    @settings(max_examples=8, deadline=None)
    def test_operand_requests_conserved(self, seed, cache_mb):
        from repro.datasets import generate_random_dataset

        ds = generate_random_dataset(12, 64, seed=seed)
        search = Epi4TensorSearch(
            ds,
            SearchConfig(block_size=4, cache_mb=cache_mb, top_k=2),
        )
        search.run()
        m = search.metrics
        for kind in ("combine", "sweep", "full3"):
            req = m.total("epi4_operand_requests_total", kind=kind)
            exe = m.total("epi4_operand_executed_total", kind=kind)
            srv = m.total("epi4_operand_cache_served_total", kind=kind)
            assert req == exe + srv
            assert req > 0
        if cache_mb is None:
            assert m.total("epi4_operand_cache_served_total") == 0

    @given(
        seed=st.integers(0, 2**16),
        n_snps=st.sampled_from([10, 12, 14, 16]),
        cache_mb=st.sampled_from([None, float("inf")]),
    )
    @settings(max_examples=8, deadline=None)
    def test_applyscore_valid_positions_conserved(
        self, seed, n_snps, cache_mb
    ):
        # Every unique 4-way combination of *real* SNPs is valid in exactly
        # one round, so the mask-compacted valid-position total over a run
        # is C(M_real, 4) regardless of padding, seed or operand caching;
        # the compaction gauge is the block scheme's useful fraction.
        from math import comb

        from repro.datasets import generate_random_dataset

        ds = generate_random_dataset(n_snps, 64, seed=seed)
        search = Epi4TensorSearch(
            ds,
            SearchConfig(
                block_size=4,
                top_k=2,
                cache_mb=cache_mb,
                prune=False,
            ),
        )
        result = search.run()
        m = search.metrics
        valid = m.total("epi4_applyscore_valid_total")
        assert valid == comb(n_snps, 4)
        positions = m.total("epi4_applyscore_positions_total")
        assert positions == result.block_scheme.quads_processed
        gauge = m.value("epi4_applyscore_compaction_ratio")
        assert gauge == pytest.approx(result.block_scheme.useful_fraction)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=6, deadline=None)
    def test_span_child_time_bounded_by_parent(self, seed):
        from repro.datasets import generate_random_dataset

        tracer = Tracer()
        ds = generate_random_dataset(12, 64, seed=seed)
        Epi4TensorSearch(
            ds,
            SearchConfig(block_size=4),
            tracer=tracer,
        ).run()
        records = tracer.records()
        by_id = {r.span_id: r for r in records}
        child_time: dict[int, float] = {}
        for r in records:
            if r.parent_id is not None:
                child_time[r.parent_id] = (
                    child_time.get(r.parent_id, 0.0) + r.duration
                )
        assert child_time, "expected nested spans"
        for parent_id, total in child_time.items():
            parent = by_id[parent_id]
            # Sequential nesting: children account for at most the
            # parent's elapsed time (tolerance for clock granularity).
            assert total <= parent.duration + 1e-6, (
                f"children of {parent.path} recorded {total}s inside a "
                f"{parent.duration}s span"
            )

    def test_synthetic_nested_spans_obey_bound(self):
        tracer = Tracer()
        with tracer.span("outer"):
            for _ in range(5):
                with tracer.span("inner"):
                    pass
        records = tracer.records()
        outer = next(r for r in records if r.name == "outer")
        inner_total = sum(
            r.duration for r in records if r.parent_id == outer.span_id
        )
        assert inner_total <= outer.duration + 1e-9


class TestShardPlanPartition:
    """The shard planner's partition property, fuzzed over its whole
    input space: every outer iteration in ``[0, nb)`` lands in exactly
    one shard — shard ``i`` holding exactly ``wi ≡ i (mod n)`` — for
    every legal shard count."""

    @given(nb=st.integers(1, 40), data=st.data())
    @settings(deadline=None)
    def test_plan_covers_every_iteration_exactly_once(self, nb, data):
        from repro.dist import plan_shards

        n_shards = data.draw(st.integers(1, nb), label="n_shards")
        plan = plan_shards(nb, n_shards, block_size=4, n_samples=64)
        counts: dict[int, int] = {}
        for shard in plan.shards:
            assert shard.iterations, "planner produced an empty shard"
            assert shard.count == n_shards
            for wi in shard.iterations:
                assert wi % n_shards == shard.index
                counts[wi] = counts.get(wi, 0) + 1
        assert counts == {wi: 1 for wi in range(nb)}
        # Per-shard closed-form volumes sum to the whole search's.
        from repro.perfmodel.workload import outer_iteration_tensor_ops

        total = sum(
            outer_iteration_tensor_ops(wi, nb, 4, 64) for wi in range(nb)
        )
        assert plan.total_tensor_ops == total

    @given(
        nb=st.integers(2, 30),
        bad=st.sampled_from(["zero", "too_many"]),
    )
    @settings(deadline=None)
    def test_degenerate_shard_counts_refused(self, nb, bad):
        from repro.dist import plan_shards

        n_shards = 0 if bad == "zero" else nb + 1
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards(nb, n_shards, block_size=4, n_samples=64)


@st.composite
def solution_lists(draw, max_lists: int = 4, max_len: int = 6):
    """Shard-local top-k lists: scores with duplicates and full double
    precision, packed ids that may collide across lists (the same quad
    surviving two shard-local top-ks after a merge of merges)."""
    from repro.core.solution import Solution

    n_lists = draw(st.integers(1, max_lists))
    return [
        [
            Solution(
                score=draw(
                    st.floats(
                        min_value=0.0,
                        max_value=1e6,
                        allow_nan=False,
                        allow_infinity=False,
                    )
                ),
                packed=draw(st.integers(0, 30)),
            )
            for _ in range(draw(st.integers(0, max_len)))
        ]
        for _ in range(n_lists)
    ]


class TestMergeAlgebra:
    """merge_topk is a commutative, associative, idempotent reduction —
    the algebraic facts that make the cross-shard merge deterministic
    regardless of shard count, completion order, or retry double-merges."""

    @given(lists=solution_lists(), k=st.integers(1, 8), seed=st.integers(0, 99))
    @settings(deadline=None)
    def test_commutative(self, lists, k, seed):
        import random

        from repro.dist import merge_topk

        shuffled = list(lists)
        random.Random(seed).shuffle(shuffled)
        assert merge_topk(k, *shuffled) == merge_topk(k, *lists)

    @given(lists=solution_lists(max_lists=5), k=st.integers(1, 8))
    @settings(deadline=None)
    def test_associative(self, lists, k):
        from repro.dist import merge_topk

        while len(lists) < 3:
            lists.append([])
        left = merge_topk(k, merge_topk(k, lists[0], lists[1]), *lists[2:])
        right = merge_topk(k, lists[0], merge_topk(k, *lists[1:]))
        assert left == right == merge_topk(k, *lists)

    @given(lists=solution_lists(), k=st.integers(1, 8))
    @settings(deadline=None)
    def test_idempotent(self, lists, k):
        from repro.dist import merge_topk

        once = merge_topk(k, *lists)
        assert merge_topk(k, once, *lists) == once
        assert merge_topk(k, once, once) == once


class TestShardMetricsConservation:
    """Counter merging preserves conservation laws: if every shard's
    snapshot satisfies ``requests == executed + cache_served``, so does
    the cross-shard sum — and totals equal the sum of shard totals."""

    @given(
        shards=st.lists(
            st.tuples(
                st.integers(0, 1000),  # executed
                st.integers(0, 1000),  # cache_served
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(deadline=None)
    def test_operand_conservation_survives_merge(self, shards):
        from repro.obs.metrics import merge_shard_snapshots

        snapshots = []
        for index, (executed, served) in enumerate(shards):
            registry = MetricsRegistry()
            registry.inc(
                "epi4_operand_requests_total", executed + served, kind="full3"
            )
            registry.inc(
                "epi4_operand_executed_total", executed, kind="full3"
            )
            registry.inc(
                "epi4_operand_cache_served_total", served, kind="full3"
            )
            registry.set_gauge("epi4_shard_index", float(index))
            snapshots.append(registry.snapshot())
        merged = merge_shard_snapshots(snapshots)
        requests = merged.total("epi4_operand_requests_total")
        executed = merged.total("epi4_operand_executed_total")
        served = merged.total("epi4_operand_cache_served_total")
        assert requests == executed + served
        assert requests == sum(e + s for e, s in shards)
        # Per-shard identity gauges must not survive the merge.
        assert "epi4_shard_index" not in merged.names()


# --------------------------------------------------------------------- #
# 5. Branch-and-bound pruning: admissibility, conservation, monotonicity
# --------------------------------------------------------------------- #


class TestBoundAdmissibility:
    """The prune gate's soundness contract: the K2 bound never exceeds the
    exact score of any valid quad, for arbitrary datasets and rounds."""

    @given(ds=datasets(min_snps=4, max_snps=10), seed=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_bound_below_exact_everywhere(self, ds, seed):
        from repro.core.apply_score import (
            apply_score_dense,
            round_validity_mask,
        )
        from repro.core.pairwise import pairw_pop
        from repro.core.selfcheck import direct_round_operands
        from repro.scoring import PRUNE_SLACK, K2BoundKernel, K2Score

        b = 4
        enc = encode_dataset(ds, block_size=b)
        pairs = pairw_pop(enc).pairs
        score = K2Score()
        kernel = K2BoundKernel(
            score.staged_kernel(enc.n_samples).table,
            enc.n_controls,
            enc.n_cases,
        )
        rng = np.random.default_rng(seed)
        nb = enc.n_snps // b
        blocks = sorted(int(v) for v in rng.integers(0, nb, size=4))
        offsets = tuple(blk * b for blk in blocks)
        operands = direct_round_operands(enc, offsets, b)
        mask = round_validity_mask(offsets, b, enc.n_real_snps)
        w, x, y, z = np.nonzero(mask)
        if w.size == 0:
            return
        exact = apply_score_dense(operands, pairs, score, enc.n_real_snps)
        bounds = kernel.quad_bounds(operands, w, x, y, z)
        assert bounds is not None
        assert np.all(bounds <= exact[mask] + PRUNE_SLACK)


class TestPruneConservation:
    """Run-level conservation with the gate on: every mask-valid position
    is either scored or pruned, survivors score bit-identically to the
    dense oracle, and results never depend on pruning."""

    @given(
        seed=st.integers(0, 2**16),
        n_snps=st.sampled_from([10, 12, 14]),
        top_k=st.sampled_from([1, 3]),
    )
    @settings(max_examples=8, deadline=None)
    def test_valid_plus_pruned_covers_mask(self, seed, n_snps, top_k):
        from math import comb

        from repro.datasets import generate_random_dataset

        ds = generate_random_dataset(n_snps, 64, seed=seed)
        search = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, top_k=top_k, prune=True)
        )
        result = search.run()
        m = search.metrics
        valid = m.total("epi4_applyscore_valid_total")
        pruned = m.total("epi4_prune_quads_total")
        # Every unique real-SNP quad is mask-valid in exactly one round:
        # the gate must account for each one exactly once.
        assert valid + pruned == comb(n_snps, 4)
        assert m.total("epi4_applyscore_positions_total") == (
            result.block_scheme.quads_processed
        )
        # The compaction gauge folds pruned positions back in, so it keeps
        # reporting the scheme's useful fraction with the gate on.
        gauge = m.value("epi4_applyscore_compaction_ratio")
        assert gauge == pytest.approx(result.block_scheme.useful_fraction)

        # Survivor scores are bit-identical to the unpruned search; the
        # pruned mass is exactly the work the gate saved.
        baseline = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, top_k=top_k, prune=False)
        ).run()
        assert result.top_solutions == baseline.top_solutions

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=6, deadline=None)
    def test_pruned_quads_score_above_final_threshold(self, seed):
        # Sharper than conservation: everything the gate dropped really
        # scores strictly above the final k-th best (admissibility means a
        # pruned bound exceeded a threshold that only ever tightens toward
        # the final k-th score).
        from repro.datasets import generate_random_dataset

        ds = generate_random_dataset(12, 64, seed=seed)
        k = 3
        pruned_run = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, top_k=k, prune=True)
        ).run()
        exhaustive = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, top_k=10**6, prune=False)
        ).run()
        kth = pruned_run.top_solutions[-1].score
        surviving = {s.quad for s in pruned_run.top_solutions}
        for sol in exhaustive.top_solutions:
            if sol.quad not in surviving and sol.score < kth:
                pytest.fail(
                    f"{sol.quad} scores {sol.score} < final k-th {kth} "
                    "but is missing from the pruned run's top-k"
                )


class TestThresholdMonotonicity:
    """kth_score is an upper bound on the final threshold at every point,
    and merging can only tighten (never relax) it."""

    @given(lists=solution_lists(max_lists=4), k=st.integers(1, 6))
    @settings(deadline=None)
    def test_merge_never_relaxes(self, lists, k):
        from repro.core.reduction import TopKReducer

        acc = TopKReducer(k)
        prev = acc.kth_score()
        assert prev == np.inf
        for sols in lists:
            other = TopKReducer(k)
            other.seed(sols)
            acc.merge(other)
            now = acc.kth_score()
            assert now <= prev
            prev = now
        # The settled threshold equals the k-th best of the union (or +inf
        # when the deduplicated union holds fewer than k candidates).
        from repro.dist import merge_topk

        union = merge_topk(k, *lists) if lists else []
        if len(union) < k:
            assert acc.kth_score() == np.inf
        else:
            assert acc.kth_score() == union[k - 1].score

    @given(lists=solution_lists(max_lists=3), k=st.integers(1, 6))
    @settings(deadline=None)
    def test_threshold_order_independent(self, lists, k):
        import random

        from repro.core.reduction import TopKReducer

        def fold(order):
            acc = TopKReducer(k)
            for sols in order:
                other = TopKReducer(k)
                other.seed(sols)
                acc.merge(other)
            return acc.kth_score()

        shuffled = list(lists)
        random.Random(7).shuffle(shuffled)
        assert fold(lists) == fold(shuffled)
