"""§4.5 in-text GPU-time breakdown.

The paper profiles a Titan RTX run (512 SNPs x 262144 samples): 82.85%
tensor contingency construction, 8.58% scoring (+XOR compat +inference),
8.41% combine, 0.15% pairwise, 0.01% transfers.

The CPU simulator's phase shares differ (completion/scoring is Python-side
work that the GPU does in registers), so this bench reports both the
measured simulator shares and the op-volume shares from the kernel
counters, whose *ordering* must match the paper's: tensor volume dominates
everything else.
"""

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.device.specs import TITAN_RTX

from conftest import print_table

PAPER_SHARES = {
    "tensor (3way+4way)": 82.85,
    "score (+compat +inference)": 8.58,
    "combine": 8.41,
    "pairwise": 0.15,
    "transfer": 0.01,
}


def test_breakdown(benchmark):
    ds = generate_random_dataset(48, 2048, seed=9)

    def run():
        return Epi4TensorSearch(
            ds, SearchConfig(block_size=8), spec=TITAN_RTX
        ).run()

    res = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    p = res.phase_seconds
    measured = {
        "tensor (3way+4way)": p["tensor3"] + p["tensor4"],
        "score (+compat +inference)": p["score"],
        "combine": p["combine"],
        "pairwise": p["pairwise"],
    }
    total = sum(measured.values())
    rows = [
        [name, f"{100 * secs / total:.2f}%", f"{PAPER_SHARES[name]:.2f}%"]
        for name, secs in measured.items()
    ]
    print_table(
        "phase shares: simulator wall time vs paper GPU profile "
        "(Titan, 512x262144)",
        ["phase", "simulator", "paper GPU"],
        rows,
    )

    m = res.metrics
    raw = m.sum_by("epi4_tensor_ops_total", "kernel", form="raw")
    transfer_bytes = m.total("epi4_transfer_bytes_total")
    volume = {
        "tensor4 GEMM ops": raw["tensor4"],
        "tensor3 GEMM ops": raw["tensor3"],
        "combine bit ops": m.total("epi4_combine_bit_ops_total"),
        "pairwise plane-dot ops": m.total("epi4_pairwise_ops_total"),
        "transfer bytes x8": transfer_bytes * 8,
    }
    vtotal = sum(volume.values())
    print_table(
        "op-volume shares (device counters)",
        ["kernel", "ops", "share"],
        [[k, f"{v:.3e}", f"{100 * v / vtotal:.2f}%"] for k, v in volume.items()],
    )
    # Shape assertions mirroring the paper's ordering.
    tensor_volume = raw["tensor4"] + raw["tensor3"]
    assert tensor_volume > 0.8 * vtotal
    assert transfer_bytes * 8 < 0.001 * vtotal
