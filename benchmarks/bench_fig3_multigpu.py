"""Fig. 3: multi-GPU performance and strong scaling on S3 (8x A100 SXM4).

Model projections of the full grid with the paper's anchors (speedups
1.98x / 3.79x / 7.11x, headline 835.4 tera quads/s, 28947 TOPS), plus a
measured functional multi-device run verifying the dynamic schedule
partitions work correctly at any device count.
"""

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.device.specs import A100_SXM4
from repro.perfmodel import predict_multi_gpu
from repro.perfmodel.figures import fig3_grid

from conftest import print_table

PAPER_SPEEDUPS = {2: 1.98, 4: 3.79, 8: 7.11}


def test_fig3_model_grid(benchmark):
    rows = [
        [
            r.n_gpus,
            r.n_snps,
            r.n_samples,
            f"{r.tera_quads_per_second:.1f}",
            f"{r.speedup:.2f}",
            PAPER_SPEEDUPS.get(r.n_gpus, "") if (r.n_snps, r.n_samples) == (4096, 524288) else "",
            f"{r.avg_tops:.0f}",
            f"{r.hours:.2f}",
        ]
        for r in fig3_grid()
    ]
    print_table(
        "Fig. 3 (model) — S3 scaling; paper headline: 835.4 tera quads/s, "
        "28947 TOPS, 14.5h -> ~2h",
        ["gpus", "M", "N", "tera-q/s", "speedup", "paper", "TOPS", "hours"],
        rows,
    )

    def grid():
        return fig3_grid()

    assert len(benchmark(grid)) == 24


def test_fig3_scaling_improves_with_dataset_size(benchmark):
    """The paper's observation: strong scaling improves for larger M."""

    def speedups():
        return {
            m: predict_multi_gpu(A100_SXM4, 8, m, 524288, 32).speedup_vs_single
            for m in (1024, 2048, 4096)
        }

    s = benchmark(speedups)
    assert s[1024] <= s[2048] <= s[4096]


def test_fig3_measured_multi_device_run(benchmark, bench_dataset_wide):
    """Functional multi-device execution: same result, work partitioned."""

    def run():
        return [
            Epi4TensorSearch(
                bench_dataset_wide,
                SearchConfig(block_size=8),
                spec=A100_SXM4,
                n_gpus=g,
            ).run()
            for g in (1, 4)
        ]

    single, multi = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert single.solution == multi.solution
    by_device = multi.metrics.sum_by("epi4_tensor_ops_total", "device", form="raw")
    loads = [by_device[str(gpu)] for gpu in range(multi.n_devices)]
    print_table(
        "measured per-device tensor-op loads (dynamic schedule)",
        ["device", "tensor ops", "share"],
        [
            [i, f"{load:.3e}", f"{100 * load / sum(loads):.1f}%"]
            for i, load in enumerate(loads)
        ],
    )
    assert min(loads) > 0
