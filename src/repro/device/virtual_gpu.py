"""Virtual GPU: real computation, accounted against a modelled device.

A :class:`VirtualGPU` owns a binary tensor engine matched to its spec
(AND+POPC on Ampere models, XOR+POPC + translation on Turing models) and
exposes the paper's kernels (`combine`, `tensorOp_3way`, `tensorOp_4way`)
as launch methods.  Every launch counts its work — raw and tile-quantized
tensor ops, general-purpose work, transferred bytes — into a
:class:`~repro.obs.metrics.MetricsRegistry` as ``device``-labeled
series, which the performance model later converts into simulated device
time.  A search points its devices at the run's registry; a standalone
device counts into a private one (``gpu.metrics``).
"""

from __future__ import annotations

import numpy as np

from repro.bitops.bitmatrix import BitMatrix
from repro.bitops.combine import combine_blocks
from repro.device.specs import GPUSpec
from repro.obs.metrics import MetricsRegistry
from repro.tensor.engine import BinaryTensorEngine, make_engine


class VirtualGPU:
    """One simulated GPU executing real binary-tensor kernels.

    Args:
        spec: hardware model (see :mod:`repro.device.specs`).
        engine: override the tensor engine (defaults to the spec's native
            kind — the paper's Turing runs use XOR+POPC because that is all
            Turing supports).
        device_id: ordinal within a multi-GPU system.
    """

    def __init__(
        self,
        spec: GPUSpec,
        engine: BinaryTensorEngine | None = None,
        device_id: int = 0,
    ) -> None:
        self.spec = spec
        self.engine = engine if engine is not None else make_engine(
            spec.native_engine_kind
        )
        if self.engine.native_op == "and" and not spec.supports_and_popc:
            raise ValueError(
                f"{spec.name} ({spec.arch}) has no native AND+POPC; "
                "use an XOR+POPC engine (paper §3.4)"
            )
        self.device_id = device_id
        self.attach_metrics(MetricsRegistry())

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Count this device's work into ``registry`` from now on.

        The device's work series are emitted zero-valued first, so the
        metric schema is the same whether or not a kernel ever launches.
        """
        self.metrics = registry
        for name in (
            "epi4_combine_bit_ops_total",
            "epi4_pairwise_ops_total",
            "epi4_score_cells_total",
            "epi4_transfer_bytes_total",
        ):
            self.count(name, 0)
        for kernel in ("tensor4", "tensor3"):
            for form in ("raw", "padded"):
                self.count("epi4_tensor_ops_total", 0, form=form, kernel=kernel)
            self.count("epi4_gemm_launches_total", 0, kernel=kernel)
            self.count("epi4_gemm_problems_total", 0, kernel=kernel)

    def count(self, name: str, value: int = 1, **labels: str) -> None:
        """Add ``value`` to this device's series ``name{labels}``."""
        self.metrics.inc(name, value, device=str(self.device_id), **labels)

    # ------------------------------------------------------------------ #
    # Kernel launches

    def transfer_to_device(self, nbytes: int) -> None:
        """Account a host-to-device (or back) memory transfer."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self.count("epi4_transfer_bytes_total", nbytes)
        self.count("epi4_kernel_launches_total", kernel="transfer")

    def launch_combine(
        self, planes: BitMatrix, first_offset: int, second_offset: int, block_size: int
    ) -> BitMatrix:
        """``combine`` kernel: AND-combine two SNP blocks (CUDA cores)."""
        out = combine_blocks(planes, first_offset, second_offset, block_size)
        self.count("epi4_combine_bit_ops_total", out.n_rows * out.n_bits)
        self.count("epi4_kernel_launches_total", kernel="combine")
        return out

    def launch_pairwise(self, plane_dot_ops: int) -> None:
        """Account the ``pairwPop`` plane-dot volume (CUDA cores)."""
        self.count("epi4_pairwise_ops_total", plane_dot_ops)
        self.count("epi4_kernel_launches_total", kernel="pairwPop")

    def launch_tensor3(
        self,
        combined: BitMatrix,
        class_planes: BitMatrix,
        t_start: int,
        t_stop: int,
        block_size: int,
    ) -> np.ndarray:
        """``tensorOp_3way`` kernel (tensor cores)."""
        # Imported here: repro.core's package __init__ pulls in the search
        # driver, which imports this module — a cycle at import time.
        from repro.core.threeway import tensorop_3way

        out = tensorop_3way(
            self.engine, combined, class_planes, t_start, t_stop, block_size
        )
        self._account_tensor("tensor3")
        return out

    def launch_tensor3_batch(
        self,
        combined_list: list[BitMatrix],
        class_planes: BitMatrix,
        t_start: int,
        t_stop: int,
        block_size: int,
    ) -> list[np.ndarray]:
        """Batched ``tensorOp_3way``: many combined operands against one
        class-plane tail in as few fused launches as possible."""
        from repro.core.threeway import tensorop_3way_batch

        outs = tensorop_3way_batch(
            self.engine, combined_list, class_planes, t_start, t_stop, block_size
        )
        self._account_tensor("tensor3")
        return outs

    def launch_tensor4(
        self, combined_wx: BitMatrix, combined_yz: BitMatrix, block_size: int
    ) -> np.ndarray:
        """``tensorOp_4way`` kernel (tensor cores)."""
        from repro.core.fourway import tensorop_4way

        out = tensorop_4way(self.engine, combined_wx, combined_yz, block_size)
        self._account_tensor("tensor4")
        return out

    def launch_tensor4_batch(
        self, combined_wx: BitMatrix, combined_yz_list: list[BitMatrix],
        block_size: int,
    ) -> list[np.ndarray]:
        """Batched ``tensorOp_4way``: one ``wx`` operand against a whole
        round group's ``yz`` operands in a single fused launch."""
        from repro.core.fourway import tensorop_4way_batch

        outs = tensorop_4way_batch(
            self.engine, combined_wx, combined_yz_list, block_size
        )
        self._account_tensor("tensor4")
        return outs

    def account_score_cells(self, n_cells: int) -> None:
        """Account ``applyScore`` work: completed + scored table cells."""
        self.count("epi4_score_cells_total", n_cells)
        self.count("epi4_kernel_launches_total", kernel="applyScore")

    # ------------------------------------------------------------------ #

    def _account_tensor(self, kernel: str) -> None:
        # The engine records one GemmShape per matmul launch (the XOR engine
        # records once per raw GEMM, batched calls once per *fused* launch);
        # drain them into the registry: one launch per shape, `batch`
        # logical problems each (fused ops: 1 AND/XOR+POPC = 2 ops, paper
        # convention; padded ops after CUTLASS tile quantization).  The
        # gap between problems and launches is the launch volume the
        # batched round pipeline collapsed.
        for shape in self.engine.last_shapes:
            padded = self.spec.tiles.padded_ops(shape.m, shape.n, shape.k_bits)
            self.count(
                "epi4_tensor_ops_total", shape.fused_ops,
                form="raw", kernel=kernel,
            )
            self.count(
                "epi4_tensor_ops_total", padded, form="padded", kernel=kernel
            )
            self.count("epi4_kernel_launches_total", kernel=kernel)
            self.count("epi4_gemm_launches_total", kernel=kernel)
            self.count("epi4_gemm_problems_total", shape.batch, kernel=kernel)
        self.engine.reset_shapes()

    def __repr__(self) -> str:
        return (
            f"VirtualGPU(id={self.device_id}, spec={self.spec.name!r}, "
            f"engine={self.engine.name})"
        )
