"""Unit tests for the device layer: specs, virtual GPU, streams."""

import sys
import threading

import numpy as np
import pytest

from repro.bitops import BitMatrix
from repro.datasets import encode_dataset, generate_random_dataset
from repro.device import (
    A100_PCIE,
    A100_SXM4,
    SYSTEMS,
    StreamModel,
    TITAN_RTX,
    VirtualGPU,
    gpu_by_name,
)
from repro.tensor import make_engine


class TestSpecs:
    def test_paper_peak_tops(self):
        """§4.1: 2088 TOPS (Titan RTX), 4992 TOPS (A100)."""
        assert round(TITAN_RTX.peak_tops) == 2088
        assert round(A100_PCIE.peak_tops) == 4990  # 4992 quoted, rounding
        assert abs(A100_PCIE.peak_tops - 4992) / 4992 < 0.001

    def test_native_engine_kinds(self):
        assert TITAN_RTX.native_engine_kind == "xor_popc"
        assert A100_PCIE.native_engine_kind == "and_popc"
        assert A100_SXM4.native_engine_kind == "and_popc"

    def test_catalog_lookup(self):
        assert gpu_by_name("Titan RTX") is TITAN_RTX
        with pytest.raises(KeyError, match="unknown GPU"):
            gpu_by_name("H100")

    def test_systems_table1(self):
        assert SYSTEMS["S1"].gpu is TITAN_RTX
        assert SYSTEMS["S2"].gpu is A100_PCIE
        assert SYSTEMS["S3"].n_gpus == 8
        assert round(SYSTEMS["S3"].peak_tops) == round(8 * A100_SXM4.peak_tops)

    def test_spec_validation(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match="arch"):
            replace(TITAN_RTX, arch="volta")
        with pytest.raises(ValueError, match="kernel_sol"):
            replace(TITAN_RTX, kernel_sol=1.5)
        with pytest.raises(ValueError, match="tensor_cores"):
            replace(TITAN_RTX, tensor_cores=0)


class TestVirtualGPU:
    @pytest.fixture()
    def enc(self):
        return encode_dataset(generate_random_dataset(8, 120, seed=0), block_size=4)

    def test_native_engine_selected(self):
        assert VirtualGPU(TITAN_RTX).engine.name == "xor_popc"
        assert VirtualGPU(A100_PCIE).engine.name == "and_popc"

    def test_rejects_and_engine_on_turing(self):
        with pytest.raises(ValueError, match="no native AND\\+POPC"):
            VirtualGPU(TITAN_RTX, engine=make_engine("and_popc"))

    def test_combine_accounting(self, enc):
        gpu = VirtualGPU(A100_PCIE)
        out = gpu.launch_combine(enc.controls, 0, 4, 4)
        m = gpu.metrics
        assert m.total("epi4_combine_bit_ops_total") == out.n_rows * out.n_bits
        assert m.total("epi4_kernel_launches_total", kernel="combine") == 1
        # Standalone devices count under their own device label.
        assert set(m.sum_by("epi4_kernel_launches_total", "device")) == {"0"}

    def test_tensor_accounting(self, enc):
        gpu = VirtualGPU(A100_PCIE)
        wx = gpu.launch_combine(enc.controls, 0, 4, 4)
        gpu.launch_tensor4(wx, wx, 4)
        ops = gpu.metrics.sum_by("epi4_tensor_ops_total", "form", kernel="tensor4")
        assert ops["raw"] == 2 * 64 * 64 * enc.n_controls
        assert ops["padded"] >= ops["raw"]

    def test_tensor3_accounting(self, enc):
        gpu = VirtualGPU(A100_PCIE)
        wx = gpu.launch_combine(enc.cases, 0, 0, 4)
        gpu.launch_tensor3(wx, enc.cases, 4, 8, 4)
        raw = gpu.metrics.total("epi4_tensor_ops_total", form="raw", kernel="tensor3")
        assert raw == 2 * 64 * 8 * enc.n_cases

    def test_transfer_accounting(self):
        gpu = VirtualGPU(A100_PCIE)
        gpu.transfer_to_device(1024)
        gpu.transfer_to_device(1024)
        assert gpu.metrics.total("epi4_transfer_bytes_total") == 2048
        with pytest.raises(ValueError):
            gpu.transfer_to_device(-1)

    def test_attached_devices_count_under_own_labels(self):
        # Two devices share one registry, each driven by two threads (the
        # stager and the scoring thread); no increment may be lost.
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        gpus = [VirtualGPU(A100_PCIE, device_id=d) for d in (0, 1)]
        for gpu in gpus:
            gpu.attach_metrics(registry)
        per_thread = 500

        def worker(gpu: VirtualGPU) -> None:
            for _ in range(per_thread):
                gpu.transfer_to_device(3)

        threads = [
            threading.Thread(target=worker, args=(gpu,)) for gpu in gpus * 2
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        expected = 2 * per_thread
        assert registry.sum_by("epi4_kernel_launches_total", "device") == {
            "0": expected, "1": expected,
        }
        assert registry.sum_by("epi4_transfer_bytes_total", "device") == {
            "0": 3 * expected, "1": 3 * expected,
        }
        # Zero-valued work series exist from the moment of attachment.
        assert registry.series("epi4_gemm_problems_total") == {
            (("device", d), ("kernel", k)): 0.0
            for d in ("0", "1")
            for k in ("tensor3", "tensor4")
        }

    def test_repr(self):
        assert "A100" in repr(VirtualGPU(A100_PCIE, device_id=2))


class TestStreamModel:
    def test_single_stream_identity_below_cap(self):
        m = StreamModel(1)
        assert m.effective_efficiency(0.4, 0.9) == pytest.approx(0.4)

    def test_streams_help_low_efficiency_most(self):
        m = StreamModel(4)
        low_gain = m.effective_efficiency(0.3, 1.0) - 0.3
        high_gain = m.effective_efficiency(0.9, 1.0) - 0.9
        assert low_gain > high_gain

    def test_capped_at_sol(self):
        assert StreamModel(8).effective_efficiency(0.8, 0.65) == 0.65

    def test_validation(self):
        with pytest.raises(ValueError, match="n_streams"):
            StreamModel(0)
        with pytest.raises(ValueError, match="base_efficiency"):
            StreamModel(2).effective_efficiency(1.2, 0.9)
