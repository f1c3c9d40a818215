"""Integration tests: the full Epi4Tensor search against the brute-force oracle."""

import numpy as np
import pytest

from repro.contingency import best_quad_brute_force
from repro.core.search import Epi4TensorSearch, SearchConfig, search_best_quad
from repro.datasets import Dataset, encode_dataset, generate_random_dataset
from repro.device.specs import A100_PCIE, TITAN_RTX
from repro.perfmodel.workload import search_workload
from repro.scoring import K2Score
from tests.helpers import assert_matches_oracle, brute_force_topk


def _oracle(ds):
    k2 = K2Score()
    return best_quad_brute_force(ds, lambda t0, t1: k2(t0, t1, order=4))


class TestCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m,b", [(12, 4), (13, 4), (16, 8), (9, 3)])
    def test_matches_brute_force(self, seed, m, b):
        ds = generate_random_dataset(m, 160, seed=seed)
        res = search_best_quad(ds, block_size=b)
        quad, score = _oracle(ds)
        assert res.best_quad == quad
        np.testing.assert_allclose(res.best_score, score, rtol=1e-12)

    @pytest.mark.parametrize("engine_kind", ["and_popc", "xor_popc"])
    @pytest.mark.parametrize("batch_rounds", [1, 4])
    def test_top_k_matches_oracle_on_padded_data(self, engine_kind, batch_rounds):
        # 13 SNPs at B=4: the last block is padded, and every same-block
        # wx/yz operand enters the 4-way GEMM diagonal-compact.
        ds = generate_random_dataset(13, 160, seed=11)
        config = SearchConfig(
            block_size=4,
            top_k=25,
            engine_kind=engine_kind,
            batch_rounds=batch_rounds,
        )
        res = Epi4TensorSearch(ds, config).run()
        assert_matches_oracle(res, brute_force_topk(ds, 25))

    def test_single_block_dataset(self):
        # M == B: every quad comes from the one all-overlapping round.
        ds = generate_random_dataset(6, 100, seed=5)
        res = search_best_quad(ds, block_size=6)
        quad, score = _oracle(ds)
        assert res.best_quad == quad

    @pytest.mark.parametrize("engine_kind", ["and_popc", "xor_popc"])
    def test_engine_equivalence(self, engine_kind):
        ds = generate_random_dataset(12, 130, seed=4)
        config = SearchConfig(block_size=4, engine_kind=engine_kind)
        res = Epi4TensorSearch(ds, config).run()
        quad, _ = _oracle(ds)
        assert res.best_quad == quad

    def test_turing_spec_runs_xor(self):
        ds = generate_random_dataset(12, 100, seed=6)
        res = Epi4TensorSearch(
            ds, SearchConfig(block_size=4), spec=TITAN_RTX
        ).run()
        assert res.engine_name == "xor_popc"
        assert res.best_quad == _oracle(ds)[0]

    def test_unbalanced_classes(self):
        ds = generate_random_dataset(12, 200, case_fraction=0.23, seed=10)
        res = search_best_quad(ds, block_size=4)
        assert res.best_quad == _oracle(ds)[0]

    def test_block_size_invariance(self):
        ds = generate_random_dataset(16, 120, seed=11)
        results = {
            b: search_best_quad(ds, block_size=b).solution for b in (2, 4, 8, 16)
        }
        assert len({s.packed for s in results.values()}) == 1


class TestMultiGPU:
    @pytest.mark.parametrize("n_gpus", [2, 3, 8])
    def test_same_result_any_gpu_count(self, n_gpus):
        ds = generate_random_dataset(20, 150, seed=12)
        single = Epi4TensorSearch(ds, SearchConfig(block_size=4)).run()
        multi = Epi4TensorSearch(
            ds, SearchConfig(block_size=4), n_gpus=n_gpus
        ).run()
        assert single.solution == multi.solution

    def test_work_conservation(self):
        ds = generate_random_dataset(16, 100, seed=13)
        single = Epi4TensorSearch(ds, SearchConfig(block_size=4)).run()
        multi = Epi4TensorSearch(ds, SearchConfig(block_size=4), n_gpus=4).run()
        assert (
            single.metrics.total("epi4_tensor_ops_total", form="raw")
            == multi.metrics.total("epi4_tensor_ops_total", form="raw")
        )

    def test_schedule_covers_all_outer_iterations(self):
        ds = generate_random_dataset(24, 80, seed=14)
        res = Epi4TensorSearch(ds, SearchConfig(block_size=4), n_gpus=3).run()
        assigned = sorted(
            i for gpu_iters in res.schedule.assignment for i in gpu_iters
        )
        assert assigned == list(range(res.block_scheme.nb))


class TestTopK:
    def test_ranked_list_matches_brute_force(self):
        from itertools import combinations

        from repro.contingency import contingency_tables_by_class

        ds = generate_random_dataset(12, 130, seed=2)
        res = Epi4TensorSearch(ds, SearchConfig(block_size=4, top_k=5)).run()
        fn = K2Score()
        ranked = sorted(
            (float(fn(*contingency_tables_by_class(ds, q), order=4)), q)
            for q in combinations(range(12), 4)
        )
        assert [s.quad for s in res.top_solutions] == [q for _, q in ranked[:5]]

    def test_top_k_consistent_across_devices(self):
        ds = generate_random_dataset(16, 120, seed=3)
        single = Epi4TensorSearch(ds, SearchConfig(block_size=4, top_k=7)).run()
        multi = Epi4TensorSearch(
            ds, SearchConfig(block_size=4, top_k=7), n_gpus=3
        ).run()
        assert single.top_solutions == multi.top_solutions

    def test_top_k_larger_than_quads(self):
        ds = generate_random_dataset(5, 60, seed=4)
        res = Epi4TensorSearch(ds, SearchConfig(block_size=5, top_k=50)).run()
        from math import comb

        assert len(res.top_solutions) == comb(5, 4)

    def test_default_top_one(self):
        ds = generate_random_dataset(8, 60, seed=5)
        res = search_best_quad(ds, block_size=4)
        assert len(res.top_solutions) == 1
        assert res.top_solutions[0] == res.solution


class TestAccounting:
    def test_counters_match_analytic_workload(self):
        ds = generate_random_dataset(13, 240, seed=7)
        # Closed-form counts assume every valid position is scored; disable
        # the bound gate so the counters are deterministic.
        res = search_best_quad(ds, block_size=4, prune=False)
        wl = search_workload(16, 240, 4, n_real_snps=13)
        raw = res.metrics.sum_by("epi4_tensor_ops_total", "kernel", form="raw")
        # Same-block operands run diagonal-compact and each Wi holds its
        # sweeps: the executed closed forms.
        assert raw["tensor4"] == wl.executed_tensor4_ops
        assert raw["tensor3"] == wl.executed_tensor3_ops
        assert res.metrics.total("epi4_combine_bit_ops_total") == (
            wl.executed_combine_bit_ops
        )
        assert res.metrics.total("epi4_score_cells_total") == wl.score_cells

    def test_padded_ops_at_least_raw(self):
        ds = generate_random_dataset(12, 100, seed=1)
        res = search_best_quad(ds, block_size=4)
        assert (
            res.metrics.total("epi4_tensor_ops_total", form="padded")
            >= res.metrics.total("epi4_tensor_ops_total", form="raw")
        )

    def test_phase_timers_recorded(self):
        ds = generate_random_dataset(12, 100, seed=1)
        res = search_best_quad(ds, block_size=4)
        for phase in ("pairwise", "combine", "tensor3", "tensor4", "score"):
            assert res.phase_seconds[phase] > 0, phase

    def test_measured_throughput_positive(self):
        ds = generate_random_dataset(12, 100, seed=1)
        res = search_best_quad(ds, block_size=4)
        assert res.quads_per_second_scaled > 0


class TestValidationErrors:
    def test_rejects_too_few_snps(self):
        with pytest.raises(ValueError, match="at least 4"):
            search_best_quad(generate_random_dataset(3, 50, seed=0))

    def test_rejects_and_engine_on_turing(self):
        ds = generate_random_dataset(8, 50, seed=0)
        with pytest.raises(ValueError, match="AND\\+POPC"):
            Epi4TensorSearch(
                ds,
                SearchConfig(block_size=4, engine_kind="and_popc"),
                spec=TITAN_RTX,
            )

    def test_rejects_unpadded_encoded_dataset(self):
        enc = encode_dataset(generate_random_dataset(10, 50, seed=0))
        with pytest.raises(ValueError, match="multiple"):
            Epi4TensorSearch(enc, SearchConfig(block_size=4))

    @pytest.mark.parametrize("label,missing", [(0, "cases"), (1, "controls")])
    def test_rejects_empty_phenotype_class(self, label, missing):
        # Caught at the boundary, before the memory model sees N0 or N1 == 0.
        ds = generate_random_dataset(8, 50, seed=0)
        one_class = Dataset(ds.genotypes, np.full(ds.n_samples, label, np.int8))
        with pytest.raises(ValueError, match=f"no {missing}"):
            Epi4TensorSearch(one_class, SearchConfig(block_size=4))

    def test_accepts_preencoded_dataset(self):
        ds = generate_random_dataset(12, 90, seed=3)
        enc = encode_dataset(ds, block_size=4)
        res = Epi4TensorSearch(enc, SearchConfig(block_size=4)).run()
        assert res.best_quad == _oracle(ds)[0]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="block_size"):
            SearchConfig(block_size=1)
        with pytest.raises(ValueError, match="n_streams"):
            SearchConfig(n_streams=0)
