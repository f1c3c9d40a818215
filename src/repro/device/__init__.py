"""Simulated GPU devices: spec catalog, virtual GPU, streams, multi-GPU cluster.

Functional computation in this layer is *real* (the engines produce exact
integer results); what is simulated is the *hardware*: per-kernel operation
accounting against a catalog of the paper's GPUs, from which the calibrated
performance model (:mod:`repro.perfmodel`) derives projected runtimes.
"""

from repro.device.cluster import VirtualCluster
from repro.device.specs import (
    A100_PCIE,
    A100_SXM4,
    GPUSpec,
    SYSTEMS,
    SystemSpec,
    TITAN_RTX,
    gpu_by_name,
)
from repro.device.streams import StreamModel
from repro.device.virtual_gpu import VirtualGPU

__all__ = [
    "A100_PCIE",
    "A100_SXM4",
    "GPUSpec",
    "SYSTEMS",
    "StreamModel",
    "SystemSpec",
    "TITAN_RTX",
    "VirtualCluster",
    "VirtualGPU",
    "gpu_by_name",
]
