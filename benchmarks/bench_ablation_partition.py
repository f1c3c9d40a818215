"""Ablation: outer-loop vs sample-range multi-GPU partitioning (§4.6).

The paper evaluated alternative parallelization schemes and kept the
outer-loop dynamic schedule; it predicts sample division "is expected to
negatively impact the performance, unless processing datasets with
significantly more samples".  The search executes only the outer-loop
scheme, so the comparison is the analytic model's: the throughput gap and
its narrowing with sample count.
"""

from repro.device.specs import A100_SXM4
from repro.perfmodel import predict_multi_gpu

from conftest import print_table


def test_model_partition_comparison(benchmark):
    def grid():
        out = {}
        for n in (262144, 524288, 4 * 524288, 16 * 524288):
            outer = predict_multi_gpu(A100_SXM4, 8, 2048, n, 32)
            samples = predict_multi_gpu(
                A100_SXM4, 8, 2048, n, 32, partition="samples"
            )
            out[n] = (
                outer.tera_quads_per_second_scaled,
                samples.tera_quads_per_second_scaled,
            )
        return out

    results = benchmark(grid)
    print_table(
        "outer-loop vs sample partitioning, 8x A100 SXM4 (model)",
        ["N", "outer", "samples", "samples/outer"],
        [
            [n, f"{o:.1f}", f"{s:.1f}", f"{s / o:.2f}"]
            for n, (o, s) in results.items()
        ],
    )
    ratios = [s / o for o, s in results.values()]
    # Outer partitioning wins at the evaluated sizes; the gap narrows as
    # samples grow — exactly the paper's prediction.
    assert all(r < 1.0 for r in ratios[:2])
    assert ratios == sorted(ratios)

