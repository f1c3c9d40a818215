"""System-level integration tests: the paper's end-use scenarios."""

from repro.core.search import Epi4TensorSearch, SearchConfig, search_best_quad
from repro.datasets import (
    encode_dataset,
    generate_epistatic_dataset,
    generate_random_dataset,
)
from repro.device.specs import A100_SXM4, TITAN_RTX


class TestDetectionPower:
    """The motivating use case: find the planted fourth-order interaction."""

    def test_recovers_planted_interaction(self):
        ds, truth = generate_epistatic_dataset(
            16,
            3000,
            interacting_snps=(2, 5, 9, 14),
            effect_size=2.6,
            baseline_risk=0.25,
            seed=42,
        )
        result = search_best_quad(ds, block_size=4)
        assert result.best_quad == truth

    def test_recovery_independent_of_device_count(self):
        ds, truth = generate_epistatic_dataset(
            12, 2500, interacting_snps=(1, 4, 7, 10), effect_size=2.6, seed=7
        )
        for n_gpus in (1, 4):
            result = Epi4TensorSearch(
                ds, SearchConfig(block_size=4), spec=A100_SXM4, n_gpus=n_gpus
            ).run()
            assert result.best_quad == truth


class TestCrossArchitectureConsistency:
    def test_turing_and_ampere_find_same_quad(self):
        ds = generate_random_dataset(16, 220, seed=77)
        ampere = Epi4TensorSearch(ds, SearchConfig(block_size=4)).run()
        turing = Epi4TensorSearch(
            ds, SearchConfig(block_size=4), spec=TITAN_RTX
        ).run()
        assert ampere.solution == turing.solution
        assert ampere.engine_name == "and_popc"
        assert turing.engine_name == "xor_popc"

    def test_profile_shape_matches_paper(self):
        # §4.5: tensor kernels dominate; pairwise precompute and transfers
        # are minor phases.  The Python simulator cannot reproduce exact GPU
        # shares, but the ordering must hold.
        ds = generate_random_dataset(32, 512, seed=3)
        res = search_best_quad(ds, block_size=8)
        p = res.phase_seconds
        tensor = p["tensor3"] + p["tensor4"]
        assert tensor + p["score"] > p["combine"]
        assert p["pairwise"] < tensor + p["score"] + p["combine"]


class TestScalePath:
    def test_larger_block_same_answer_more_waste(self):
        ds = generate_random_dataset(32, 200, seed=5)
        small = Epi4TensorSearch(ds, SearchConfig(block_size=4)).run()
        large = Epi4TensorSearch(ds, SearchConfig(block_size=16)).run()
        assert small.solution == large.solution
        assert (
            large.block_scheme.useful_fraction < small.block_scheme.useful_fraction
        )
        assert (
            large.metrics.total("epi4_tensor_ops_total", form="raw")
            > small.metrics.total("epi4_tensor_ops_total", form="raw")
        )

    def test_dataset_padding_never_wins(self):
        # A dataset whose padded SNPs are constant: the winning quad must
        # consist of real SNPs only.
        ds = generate_random_dataset(9, 130, seed=13)
        res = search_best_quad(ds, block_size=8)  # pads 9 -> 16
        assert all(idx < 9 for idx in res.best_quad)

    def test_preencoded_reuse_across_searches(self):
        ds = generate_random_dataset(12, 150, seed=21)
        enc = encode_dataset(ds, block_size=4)
        r1 = Epi4TensorSearch(enc, SearchConfig(block_size=4)).run()
        r2 = Epi4TensorSearch(
            enc, SearchConfig(block_size=4, engine_kind="xor_popc")
        ).run()
        assert r1.solution == r2.solution
