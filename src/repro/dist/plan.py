"""Shard planner: partition the outer ``Wi`` loop across processes.

The unit of distribution is the same §3.6 unit the in-process dynamic
schedule uses — one outer iteration.  A plan assigns every iteration in
``[0, nb)`` to exactly one shard (coverage and disjointness are
*verified*, not assumed, at construction), and carries each shard's
closed-form work volume so measured-vs-modelled assertions hold per
shard, not just per run.

The plan is one fixed rule: shard ``i`` of ``n`` runs every
``wi ≡ i (mod n)``.  The per-iteration volume decreases with ``wi``, so
the round-robin deal balances load without cost modelling, and every
node derives the same plan from ``(nb, n)`` alone.

Per-shard accounting reuses :class:`~repro.device.cluster.ScheduleResult`
with shards in the device role: :meth:`ShardPlan.schedule` scores the
plan's assignment against the closed-form iteration costs, so shard
imbalance is reported with the same vocabulary (loads, makespan,
speedup) as the in-process schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.cluster import ScheduleResult
from repro.perfmodel.workload import (
    outer_iteration_tensor_ops,
    shard_tensor_ops,
)


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity and workload.

    Attributes:
        index / count: this shard's position in the plan.
        iterations: the outer iterations this shard executes (sorted).
        tensor_ops: closed-form tensor-op volume of those iterations.
        tensor4_ops: the cache-invariant 4-way component of that volume.
    """

    index: int
    count: int
    iterations: tuple[int, ...]
    tensor_ops: int
    tensor4_ops: int

    def to_dict(self) -> dict:
        """JSON-safe view (worker requests, shard artifacts)."""
        return {
            "index": self.index,
            "count": self.count,
            "iterations": list(self.iterations),
            "tensor_ops": self.tensor_ops,
            "tensor4_ops": self.tensor4_ops,
        }


@dataclass(frozen=True)
class ShardPlan:
    """A validated partition of ``[0, nb)`` into shards.

    Construction re-verifies the partition property — every outer
    iteration covered exactly once — so no caller can hold a plan that
    would drop or double-score a quad.
    """

    nb: int
    block_size: int
    n_samples: int
    shards: tuple[ShardSpec, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for shard in self.shards:
            if not shard.iterations:
                raise ValueError(f"shard {shard.index} is empty")
            for wi in shard.iterations:
                if not 0 <= wi < self.nb:
                    raise ValueError(
                        f"shard {shard.index}: iteration {wi} outside "
                        f"[0, {self.nb})"
                    )
                if wi in seen:
                    raise ValueError(
                        f"shard {shard.index}: iteration {wi} assigned twice"
                    )
                seen.add(wi)
        if len(seen) != self.nb:
            missing = sorted(set(range(self.nb)) - seen)
            raise ValueError(
                f"plan does not cover every outer iteration; missing {missing}"
            )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def total_tensor_ops(self) -> int:
        return sum(s.tensor_ops for s in self.shards)

    def shard(self, index: int) -> ShardSpec:
        if not 0 <= index < len(self.shards):
            raise ValueError(
                f"shard index {index} outside plan of {len(self.shards)}"
            )
        return self.shards[index]

    def schedule(self) -> ScheduleResult:
        """Score the plan with shards in the device role (loads,
        makespan, speedup — the standard accounting vocabulary)."""
        costs = [
            float(
                outer_iteration_tensor_ops(
                    wi, self.nb, self.block_size, self.n_samples
                )
            )
            for wi in range(self.nb)
        ]
        return ScheduleResult.from_executed(
            [list(s.iterations) for s in self.shards], costs
        )


def plan_shards(
    nb: int,
    n_shards: int,
    *,
    block_size: int,
    n_samples: int,
) -> ShardPlan:
    """Partition ``nb`` outer iterations into ``n_shards`` shards, shard
    ``i`` taking every ``wi ≡ i (mod n_shards)``.

    Args:
        nb: number of SNP blocks (= outer iterations).
        n_shards: shard count; must be in ``[1, nb]`` (an empty shard
            would be a worker with nothing to do — refuse up front).
        block_size / n_samples: workload-model parameters for the
            per-shard cost closed forms.

    Returns:
        A validated :class:`ShardPlan`.
    """
    if nb < 1:
        raise ValueError(f"nb must be >= 1, got {nb}")
    if not 1 <= n_shards <= nb:
        raise ValueError(
            f"n_shards must be in [1, {nb}] (one non-empty shard per "
            f"worker), got {n_shards}"
        )
    shards = []
    for index in range(n_shards):
        iterations = tuple(range(index, nb, n_shards))
        volume = shard_tensor_ops(iterations, nb, block_size, n_samples)
        shards.append(
            ShardSpec(
                index=index,
                count=n_shards,
                iterations=iterations,
                tensor_ops=volume["tensor_ops"],
                tensor4_ops=volume["tensor4_ops"],
            )
        )
    return ShardPlan(
        nb=nb,
        block_size=block_size,
        n_samples=n_samples,
        shards=tuple(shards),
    )
