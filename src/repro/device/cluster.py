"""Multi-GPU system model with OpenMP-style dynamic scheduling (paper §3.6).

Work is divided at the outermost block loop (the ``Wi`` iterator): one CPU
thread per GPU requests the next unprocessed iteration as soon as it
finishes its current one (OpenMP ``schedule(dynamic)``), so the decreasing
per-iteration workload is balanced without inter-GPU communication.  Each
GPU holds a full dataset copy and reduces its own local best; the host
reduces across GPUs at the end.

Simulated clocks drive the schedule: iteration costs (from the analytic
workload model or measured) are replayed through a greedy
earliest-available-device assignment, which is exactly what the dynamic
schedule converges to when iterations are issued in order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.specs import GPUSpec
from repro.device.virtual_gpu import VirtualGPU
from repro.tensor.engine import make_engine


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of a dynamic schedule replay.

    Attributes:
        assignment: ``assignment[g]`` lists the outer-iteration indices run
            by GPU ``g``, in execution order.
        device_loads: total simulated cost per GPU.
        makespan: ``max(device_loads)`` — the simulated parallel runtime.
        total_cost: ``sum(costs)`` — the simulated serial runtime.
    """

    assignment: list[list[int]]
    device_loads: list[float]
    makespan: float
    total_cost: float

    @property
    def speedup(self) -> float:
        """Strong-scaling speedup over a single device of the same kind."""
        return self.total_cost / self.makespan if self.makespan > 0 else 1.0

    @classmethod
    def from_executed(
        cls, assignment: list[list[int]], costs: list[float]
    ) -> "ScheduleResult":
        """Score an assignment that actually ran (e.g. the dynamic order
        the device threads of :class:`~repro.core.search.Epi4TensorSearch`
        pulled from their shared work queue) against per-iteration costs.

        Lets the realized load balance be compared with the modelled
        :func:`schedule_dynamic` replay on equal terms.
        """
        if any(c < 0 for c in costs):
            raise ValueError("iteration costs must be non-negative")
        seen: set[int] = set()
        for worker in assignment:
            for index in worker:
                if not 0 <= index < len(costs):
                    raise ValueError(
                        f"iteration {index} outside cost table of "
                        f"{len(costs)} entries"
                    )
                if index in seen:
                    raise ValueError(f"iteration {index} assigned twice")
                seen.add(index)
        loads = [float(sum(costs[i] for i in worker)) for worker in assignment]
        return cls(
            assignment=[list(worker) for worker in assignment],
            device_loads=loads,
            makespan=max(loads) if loads else 0.0,
            total_cost=float(sum(costs[i] for i in seen)),
        )


def schedule_dynamic(
    costs: list[float],
    n_devices: int,
    iterations: list[int] | None = None,
) -> ScheduleResult:
    """Replay OpenMP ``schedule(dynamic)`` over in-order iterations.

    Args:
        costs: per-iteration cost, indexed by global iteration number
            (``Wi = 0, 1, ...``).
        n_devices: number of GPUs.
        iterations: optional restricted issue list (e.g. one shard's
            sub-domain), in issue order.  The assignment then carries the
            *global* iteration indices over just that sub-domain; ``None``
            issues every iteration ``0..len(costs)-1`` in order.

    Returns:
        :class:`ScheduleResult`.
    """
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices}")
    if any(c < 0 for c in costs):
        raise ValueError("iteration costs must be non-negative")
    if iterations is None:
        issue: list[int] = list(range(len(costs)))
    else:
        issue = [int(i) for i in iterations]
        for index in issue:
            if not 0 <= index < len(costs):
                raise ValueError(
                    f"iteration {index} outside cost table of "
                    f"{len(costs)} entries"
                )
        if len(set(issue)) != len(issue):
            raise ValueError("iterations contains duplicates")
    assignment: list[list[int]] = [[] for _ in range(n_devices)]
    loads = [0.0] * n_devices
    for index in issue:
        device = min(range(n_devices), key=lambda g: (loads[g], g))
        assignment[device].append(index)
        loads[device] += costs[index]
    total = float(sum(costs[i] for i in issue))
    return ScheduleResult(
        assignment=assignment,
        device_loads=loads,
        makespan=max(loads) if loads else 0.0,
        total_cost=total,
    )


class VirtualCluster:
    """A homogeneous multi-GPU system (e.g. the 8-GPU HGX A100, system S3)."""

    def __init__(
        self,
        spec: GPUSpec,
        n_gpus: int,
        *,
        engine_kind: str | None = None,
    ) -> None:
        if n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {n_gpus}")
        self.spec = spec
        self.gpus = [
            VirtualGPU(
                spec,
                engine=None if engine_kind is None else make_engine(engine_kind),
                device_id=i,
            )
            for i in range(n_gpus)
        ]

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    def schedule(
        self, costs: list[float], iterations: list[int] | None = None
    ) -> ScheduleResult:
        """Dynamic-schedule the outer iterations across this cluster."""
        return schedule_dynamic(costs, self.n_gpus, iterations)

    def __repr__(self) -> str:
        return f"VirtualCluster({self.n_gpus} x {self.spec.name})"
