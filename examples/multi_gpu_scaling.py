#!/usr/bin/env python
"""Multi-GPU strong scaling: the paper's §3.6/§4.6 experiment in miniature.

Runs the same search on 1, 2, 4 and 8 simulated A100 SXM4 devices, shows
that results are bit-identical, how the dynamic outer-loop schedule divides
the work, and what the calibrated model projects for the paper-scale
dataset (4096 SNPs x 524288 samples: speedups 1.98x / 3.79x / 7.11x).

Run:  python examples/multi_gpu_scaling.py
"""

from repro import SearchConfig, generate_random_dataset, predict_multi_gpu
from repro.core.search import Epi4TensorSearch
from repro.device.specs import A100_SXM4


def main() -> None:
    dataset = generate_random_dataset(n_snps=64, n_samples=512, seed=31)
    print(f"dataset: {dataset}\n")

    print("functional runs (simulated devices, identical results required):")
    reference = None
    for n_gpus in (1, 2, 4, 8):
        result = Epi4TensorSearch(
            dataset, SearchConfig(block_size=8), spec=A100_SXM4, n_gpus=n_gpus
        ).run()
        if reference is None:
            reference = result.solution
        assert result.solution == reference, "devices must agree"
        by_device = result.metrics.sum_by(
            "epi4_tensor_ops_total", "device", form="raw"
        )
        loads = [by_device[str(gpu)] for gpu in range(n_gpus)]
        shares = ", ".join(f"{100 * l / sum(loads):.0f}%" for l in loads)
        print(
            f"  {n_gpus} GPU(s): quad {result.best_quad}, "
            f"outer iters/device {[len(a) for a in result.schedule.assignment]}, "
            f"op shares [{shares}]"
        )
    print(f"\nall device counts found: {reference}\n")

    print("model projection at paper scale (4096 SNPs x 524288 samples):")
    print("  gpus  tera-quads/s  speedup  (paper)   hours")
    paper = {1: "", 2: "1.98", 4: "3.79", 8: "7.11"}
    for n_gpus in (1, 2, 4, 8):
        pred = predict_multi_gpu(A100_SXM4, n_gpus, 4096, 524288, 32)
        print(
            f"  {n_gpus:4d}  {pred.tera_quads_per_second_scaled:12.1f}  "
            f"{pred.speedup_vs_single:7.2f}  {paper[n_gpus]:>7s}  "
            f"{pred.seconds / 3600:5.2f}"
        )


if __name__ == "__main__":
    main()
