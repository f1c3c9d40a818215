"""Ablation: interaction order 2 / 3 / 4 on the same substrate.

The paper's related art covers tensor-accelerated second/third order
[14, 16]; Epi4Tensor contributes fourth order and §6 targets higher orders.
This bench runs all three searches on one dataset and reports how the work
volume explodes with the order — the quantitative version of §1's
"depending on the interaction order ... can be very computationally
challenging".
"""

from math import comb

from repro.core.korder import search_second_order, search_third_order
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset

from conftest import print_table


def test_order_sweep(benchmark):
    ds = generate_random_dataset(24, 512, seed=17)

    def run_all():
        r2 = search_second_order(ds, block_size=8)
        r3 = search_third_order(ds, block_size=8)
        r4 = Epi4TensorSearch(ds, SearchConfig(block_size=8)).run()
        return r2, r3, r4

    r2, r3, r4 = benchmark.pedantic(run_all, rounds=1, iterations=1, warmup_rounds=0)
    r4_ops = int(r4.metrics.total("epi4_tensor_ops_total", form="raw"))
    rows = [
        ["2", comb(24, 2), f"{r2.tensor_ops:.2e}", f"{r2.wall_seconds:.3f}", str(r2.best_tuple)],
        ["3", comb(24, 3), f"{r3.tensor_ops:.2e}", f"{r3.wall_seconds:.3f}", str(r3.best_tuple)],
        [
            "4",
            comb(24, 4),
            f"{r4_ops:.2e}",
            f"{r4.wall_seconds:.3f}",
            str(r4.best_quad),
        ],
    ]
    print_table(
        "interaction-order sweep (24 SNPs x 512 samples)",
        ["order", "combos", "tensor ops", "wall s", "best"],
        rows,
    )
    assert r2.tensor_ops < r3.tensor_ops < r4_ops


def test_combination_growth(benchmark):
    """§1 context: combinations per order at the paper's dataset sizes."""

    def table():
        return {
            (m, k): comb(m, k) for m in (256, 2048) for k in (2, 3, 4)
        }

    counts = benchmark(table)
    print_table(
        "combinations to evaluate",
        ["M", "k=2", "k=3", "k=4"],
        [
            [m, counts[(m, 2)], counts[(m, 3)], counts[(m, 4)]]
            for m in (256, 2048)
        ],
    )
    # Each added order multiplies the combination count by ~M/k.
    assert counts[(2048, 4)] / counts[(2048, 2)] > 1e5
    assert counts[(2048, 4)] == 730862190080  # the §4.3 figure
