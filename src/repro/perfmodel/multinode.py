"""Multi-node scaling projection (paper §6 ongoing work).

The paper's conclusion: "The proposed approach can, due to the nature of
the problem, scale well if targeting additional computer nodes.  For this
reason, ongoing work includes making multi-node implementations extending
the current multi-GPU implementation."

This module extends the §3.6 scheme one level up: outer-loop iterations are
dynamically scheduled over *all* GPUs of the cluster (no inter-node
communication is needed during the search — exactly the property that makes
the problem multi-node friendly), each node pays the intra-node chassis
derate, and the dataset reaches every node over the cluster interconnect
before the search starts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.cluster import ScheduleResult, schedule_dynamic
from repro.device.specs import A100_SXM4, GPUSpec
from repro.perfmodel.model import (
    multi_gpu_derate,
    predict_search,
)
from repro.perfmodel.workload import outer_iteration_tensor_ops

#: Default cluster interconnect (InfiniBand HDR), bytes/second.
INTERCONNECT_BPS = 25e9


@dataclass(frozen=True)
class MultiNodePrediction:
    """Projected multi-node search performance.

    Attributes:
        n_nodes / gpus_per_node: cluster shape.
        seconds: projected end-to-end time (broadcast + search makespan).
        tera_quads_per_second_scaled: the headline metric.
        speedup_vs_single_gpu: vs one GPU of the same kind.
        parallel_efficiency: ``speedup / total_gpus``.
        schedule: the flat dynamic schedule over all GPUs.
        broadcast_seconds: dataset distribution time (tree broadcast).
    """

    n_nodes: int
    gpus_per_node: int
    seconds: float
    tera_quads_per_second_scaled: float
    speedup_vs_single_gpu: float
    parallel_efficiency: float
    schedule: ScheduleResult
    broadcast_seconds: float

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node


def predict_shard_schedule(
    iterations: "list[int]",
    nb: int,
    block_size: int,
    n_samples: int,
    n_gpus: int,
) -> ScheduleResult:
    """Predict the dynamic schedule one shard's worker will realize.

    The distributed layer (:mod:`repro.dist`) hands each worker process a
    restricted outer-iteration domain; inside the process the standard
    §3.6 dynamic schedule balances that domain across the worker's GPUs.
    Replaying the same greedy assignment over the closed-form iteration
    weights predicts it exactly — ``bench_multinode`` asserts the measured
    per-shard modelled ``ScheduleResult`` (total cost and full
    assignment) against this prediction.
    """
    costs = [
        float(outer_iteration_tensor_ops(wi, nb, block_size, n_samples))
        for wi in range(nb)
    ]
    return schedule_dynamic(costs, n_gpus, list(iterations))


def predict_multi_node(
    n_nodes: int,
    gpus_per_node: int,
    n_snps: int,
    n_samples: int,
    block_size: int = 32,
    *,
    spec: GPUSpec = A100_SXM4,
    interconnect_bps: float = INTERCONNECT_BPS,
) -> MultiNodePrediction:
    """Project an Epi4Tensor search on a GPU cluster.

    Work division stays at the outer (``Wi``) loop: iterations are handed to
    whichever GPU (on whichever node) is free — the natural extension of the
    OpenMP-dynamic scheme, feasible because the search requires zero
    inter-node traffic.  The dataset is tree-broadcast to the nodes first.

    Note the granularity limit this inherits: with ``nb`` outer iterations,
    at most ``nb`` GPUs can be busy; scaling to many nodes needs either more
    SNPs or splitting at the ``Xi`` loop (which this model treats as future
    refinement, as the paper does).
    """
    if n_nodes < 1 or gpus_per_node < 1:
        raise ValueError("n_nodes and gpus_per_node must be >= 1")
    single = predict_search(spec, n_snps, n_samples, block_size)
    nb = n_snps // block_size
    costs = [
        float(outer_iteration_tensor_ops(wi, nb, block_size, n_samples))
        for wi in range(nb)
    ]
    total_gpus = n_nodes * gpus_per_node
    schedule = schedule_dynamic(costs, total_gpus)
    per_gpu_tops = single.avg_tops * multi_gpu_derate(gpus_per_node)
    search_seconds = schedule.makespan / (per_gpu_tops * 1e12)

    import math

    # Binary-tree broadcast across nodes, then intra-node fan-out (the
    # §3.6 host-to-GPU transfer, negligible and folded into one PCIe pass).
    tree_steps = math.ceil(math.log2(n_nodes)) if n_nodes > 1 else 0
    broadcast_seconds = (
        tree_steps * single.workload.transfer_bytes / interconnect_bps
        + single.workload.transfer_bytes / 25e9
    )
    seconds = search_seconds + broadcast_seconds
    speedup = single.seconds / seconds
    return MultiNodePrediction(
        n_nodes=n_nodes,
        gpus_per_node=gpus_per_node,
        seconds=seconds,
        tera_quads_per_second_scaled=(
            single.workload.scaled_quads / seconds / 1e12
        ),
        speedup_vs_single_gpu=speedup,
        parallel_efficiency=speedup / total_gpus,
        schedule=schedule,
        broadcast_seconds=broadcast_seconds,
    )
