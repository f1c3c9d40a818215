#!/usr/bin/env python
"""Quickstart: run a fourth-order epistasis search end to end.

Generates a synthetic case-control dataset, runs the Epi4Tensor search on
the simulated A100 device, and prints the best quad with full execution
accounting — the 60-second tour of the public API.

Run:  python examples/quickstart.py
"""

from repro import SearchConfig, generate_random_dataset
from repro.core.search import Epi4TensorSearch


def main() -> None:
    # 1. A dataset: 48 SNPs x 1024 samples, half cases / half controls.
    dataset = generate_random_dataset(n_snps=48, n_samples=1024, seed=2024)
    print(f"dataset : {dataset}")

    # 2. Configure the search.  Block size 8 is appropriate for the CPU
    #    simulator; the paper uses 32 on real tensor cores.
    config = SearchConfig(block_size=8)
    search = Epi4TensorSearch(dataset, config)

    # 3. Run the exhaustive fourth-order search.
    result = search.run()

    # 4. The answer: the most phenotype-associated quad of SNPs.
    w, x, y, z = result.best_quad
    print(f"best quad  : snp{w}, snp{x}, snp{y}, snp{z}")
    print(f"K2 score   : {result.best_score:.4f} (lower = stronger association)")

    # 5. Execution accounting — what the device "did".
    scheme = result.block_scheme
    print(f"rounds     : {scheme.n_rounds} evaluation rounds "
          f"({scheme.quads_processed:,} positional quads, "
          f"{100 * scheme.useful_fraction:.1f}% unique)")
    tensor_ops = int(result.metrics.total("epi4_tensor_ops_total", form="raw"))
    print(f"tensor ops : {tensor_ops:,} fused binary ops")
    print(f"wall time  : {result.wall_seconds:.2f}s on the CPU simulator")
    for phase, seconds in sorted(
        result.phase_seconds.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {phase:<10s} {seconds:.3f}s")


if __name__ == "__main__":
    main()
