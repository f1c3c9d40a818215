"""Table 1: the three target systems and their derived peak throughputs.

Prints the system catalog (with the §4.1 peak binary-TOPS derivation) and
benchmarks the device-layer accounting overhead to show it is negligible
relative to kernel work.
"""

from repro.datasets import encode_dataset
from repro.device import VirtualGPU
from repro.device.specs import A100_PCIE
from repro.perfmodel.figures import table1_rows

from conftest import print_table


def test_table1_catalog(benchmark, bench_dataset_small):
    rows = [
        [
            r["system"],
            r["gpu"],
            r["arch"],
            r["tensor_cores"],
            f"{r['boost_mhz']:.0f}",
            f"{r['memory_gb']:.0f}GB",
            f"{r['peak_binary_tops']:.0f}",
        ]
        for r in table1_rows()
    ]
    print_table(
        "Table 1 — target systems (paper peaks: 2088 / 4992 / 8x4992 TOPS)",
        ["sys", "gpu", "arch", "tcores", "MHz", "mem", "peak TOPS"],
        rows,
    )

    enc = encode_dataset(bench_dataset_small, block_size=8)

    def launch_round():
        gpu = VirtualGPU(A100_PCIE)
        gpu.transfer_to_device(enc.nbytes)
        wx = gpu.launch_combine(enc.controls, 0, 8, 8)
        yz = gpu.launch_combine(enc.controls, 16, 24, 8)
        gpu.launch_tensor4(wx, yz, 8)
        return gpu.metrics.total("epi4_tensor_ops_total", form="raw")

    ops = benchmark(launch_round)
    assert ops > 0
