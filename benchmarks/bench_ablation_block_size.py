"""Ablation: block size B (§4.4/§4.5).

The paper's trade-off: larger blocks enlarge the GEMM operands (better
tensor throughput on real hardware) but evaluate more repeated quads.  The
measured part shows the wasted-work growth directly; the model part shows
where B=64 pays off (large M, small N) and where it does not.
"""

import pytest

from repro.core.blocks import useful_ratio
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.device.specs import A100_PCIE
from repro.perfmodel import predict_search

from conftest import print_table


def test_model_b64_helps_large_m_small_n(benchmark):
    """§4.5: B=64 pays off most at 2048 SNPs x 32768 samples."""

    def grid():
        out = {}
        for m in (256, 2048):
            for n in (32768, 262144):
                p32 = predict_search(A100_PCIE, m, n, 32)
                p64 = predict_search(A100_PCIE, m, n, 64)
                out[(m, n)] = (
                    p64.tera_quads_per_second_scaled
                    / p32.tera_quads_per_second_scaled
                )
        return out

    gains = benchmark(grid)
    print_table(
        "model: B=64 vs B=32 throughput ratio",
        ["M", "N", "B64/B32"],
        [[m, n, f"{g:.3f}"] for (m, n), g in gains.items()],
    )
    # The extreme case of the paper: gain is maximal at (2048, 32768)
    # relative to the (256, 262144) corner.
    assert gains[(2048, 32768)] > gains[(256, 262144)]


@pytest.mark.parametrize("block_size", [4, 8, 16])
def test_measured_block_size(benchmark, block_size, bench_dataset_small):
    """Measured: same result at any B; wasted work grows with B."""

    def run():
        return Epi4TensorSearch(
            bench_dataset_small, SearchConfig(block_size=block_size)
        ).run()

    res = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print(
        f"\nB={block_size}: useful={100 * res.block_scheme.useful_fraction:.1f}%, "
        f"tensor ops={res.metrics.total('epi4_tensor_ops_total', form='raw'):.3e}"
    )
    assert res.best_score < float("inf")


def test_useful_ratio_decreases_with_block_size(benchmark):
    def ratios():
        return [useful_ratio(1024, b) for b in (8, 16, 32, 64, 128)]

    values = benchmark(ratios)
    assert values == sorted(values, reverse=True)
