"""Deterministic global merge of shard-local results.

Correctness argument (why the merged top-k is bit-identical to an
unsharded run):

1. The shard plan covers every outer iteration exactly once, so every
   unique quad is scored by exactly one shard — with exactly the bits
   and exactly the kernels the unsharded run would use (a shard *is*
   the unsharded search over a restricted domain; nothing about scoring
   depends on which other iterations run in the same process).
2. A quad that belongs to the global top-k necessarily belongs to the
   local top-k of the shard that scored it (its shard-local competitors
   are a subset of its global competitors), so the union of shard-local
   top-k lists contains the global top-k.
3. :class:`~repro.core.reduction.TopKReducer` is order-independent —
   sort by ``(score, packed)``, dedup by packed quad, truncate to k —
   so reducing that union yields the same ranked list regardless of
   shard count, shard order, or merge associativity.  Scores travel as
   JSON floats (``repr`` round-trip: bit-exact), so not one ULP is lost
   between processes.

Merging is refused loudly on any identity violation: mismatched shard
configurations (clause-indexed: the error names the shard *and* the
offending fingerprint clause), wrong shard counts, duplicate or missing
shards, non-partitioned iteration domains, or differing dataset
digests.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from typing import Iterable

from repro.core.reduction import TopKReducer
from repro.core.solution import Solution
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    solutions_digest,
)
from repro.obs.metrics import MetricsRegistry, merge_shard_snapshots


class ShardMergeError(ValueError):
    """The shard artifacts do not form one coherent sharded run."""


#: Identity clauses compared across shards, in fingerprint order —
#: the structured counterparts of the ``M r c k B E K G`` clauses (the
#: ``S`` clause is the constant ``Sk2``: the search scores with K2 only).
IDENTITY_CLAUSES = (
    "n_snps",
    "n_real_snps",
    "n_controls",
    "n_cases",
    "block_size",
    "engine",
    "top_k",
    "n_gpus",
)


@dataclass(frozen=True)
class MergedRun:
    """The outcome of a deterministic cross-shard merge.

    Attributes:
        solutions: the merged ranked top-k (bit-identical to the
            unsharded run's).
        top_k_sha256: digest of that list.
        nb: outer-iteration count covered.
        n_shards: number of shards merged.
        shards: the shard artifact dicts, in shard-index order.
        metrics: the aggregated registry (counters summed — conservation
            laws hold globally).
        manifest: the merged global run manifest.
    """

    solutions: list[Solution]
    top_k_sha256: str
    nb: int
    n_shards: int
    shards: list[dict]
    metrics: MetricsRegistry
    manifest: RunManifest

    @property
    def best(self) -> Solution:
        return self.solutions[0] if self.solutions else Solution.worst()


def merge_topk(k: int, *solution_lists: Iterable[Solution]) -> list[Solution]:
    """Merge ranked shard-local top-k lists into the global top-k.

    Commutative, associative and idempotent (the property suite asserts
    all three): the reduction sorts by ``(score, packed)``, dedups by
    packed quad and truncates — no trace of argument order survives.
    """
    reducer = TopKReducer(k)
    for solutions in solution_lists:
        reducer.seed(solutions)
    return reducer.result()


def find_shard_artifacts(directory: str | os.PathLike) -> list[str]:
    """Shard artifact paths in ``directory`` (any shard count)."""
    pattern = os.path.join(os.fspath(directory), "shard-*of*.json")
    return sorted(p for p in glob.glob(pattern) if "-manifest" not in p)


def merge_shards(source: "str | os.PathLike | list[dict]") -> MergedRun:
    """Merge a sharded run from a directory of artifacts (or the
    artifact dicts themselves).

    Raises:
        ShardMergeError: on any identity, coverage or disjointness
            violation — the message names the offending shard index and,
            for configuration mismatches, the fingerprint clause.
    """
    if isinstance(source, (str, os.PathLike)):
        paths = find_shard_artifacts(source)
        if not paths:
            raise ShardMergeError(
                f"no shard artifacts (shard-*of*.json) found in {source}"
            )
        artifacts = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as fh:
                artifacts.append(json.load(fh))
    else:
        artifacts = list(source)
        if not artifacts:
            raise ShardMergeError("no shard artifacts to merge")

    for artifact in artifacts:
        if artifact.get("kind") != "epi4tensor-shard":
            raise ShardMergeError(
                f"artifact kind {artifact.get('kind')!r} is not a shard "
                "artifact"
            )

    artifacts.sort(key=lambda a: int(a["shard"]["index"]))
    count = len(artifacts)
    reference = artifacts[0]

    # -- shard-set integrity: indices 0..n-1, each exactly once, every
    #    artifact agreeing on the count.
    indices = [int(a["shard"]["index"]) for a in artifacts]
    if indices != list(range(count)):
        raise ShardMergeError(
            f"shard indices {indices} do not form 0..{count - 1} "
            "(missing or duplicate shards)"
        )
    for artifact in artifacts:
        declared = int(artifact["shard"]["count"])
        if declared != count:
            raise ShardMergeError(
                f"shard {artifact['shard']['index']}: declares "
                f"{declared} shards, but {count} artifacts are present"
            )

    # -- identity: clause-indexed comparison against shard 0.
    for artifact in artifacts[1:]:
        index = artifact["shard"]["index"]
        for clause in IDENTITY_CLAUSES:
            have = artifact["identity"].get(clause)
            want = reference["identity"].get(clause)
            if have != want:
                raise ShardMergeError(
                    f"shard {index}: fingerprint clause {clause!r} is "
                    f"{have!r}, expected {want!r} (shard 0); refusing to "
                    "merge results of different searches"
                )
        if artifact["fingerprint"] != reference["fingerprint"]:
            raise ShardMergeError(
                f"shard {index}: fingerprint "
                f"{artifact['fingerprint']!r} != {reference['fingerprint']!r}"
            )
        if (
            artifact["dataset"]["encoded_sha256"]
            != reference["dataset"]["encoded_sha256"]
        ):
            raise ShardMergeError(
                f"shard {index}: dataset digest differs from shard 0 — "
                "the shards did not search the same data"
            )
        if artifact["nb"] != reference["nb"]:
            raise ShardMergeError(
                f"shard {index}: nb={artifact['nb']}, expected "
                f"{reference['nb']}"
            )

    # -- coverage/disjointness: the domains must partition [0, nb).
    nb = int(reference["nb"])
    owner: dict[int, int] = {}
    for artifact in artifacts:
        index = int(artifact["shard"]["index"])
        for wi in artifact["shard"]["iterations"]:
            wi = int(wi)
            if not 0 <= wi < nb:
                raise ShardMergeError(
                    f"shard {index}: iteration {wi} outside [0, {nb})"
                )
            if wi in owner:
                raise ShardMergeError(
                    f"shard {index}: iteration {wi} also claimed by "
                    f"shard {owner[wi]} — domains overlap"
                )
            owner[wi] = index
    missing = sorted(set(range(nb)) - set(owner))
    if missing:
        raise ShardMergeError(
            f"iterations {missing} are covered by no shard — merge would "
            "silently drop quads from the exhaustive search"
        )

    # -- the deterministic merge itself.
    k = int(reference["top_k"])
    merged = merge_topk(
        k,
        *[
            [Solution.from_pair(pair) for pair in artifact["solutions"]]
            for artifact in artifacts
        ],
    )
    digest = solutions_digest(merged)
    metrics = merge_shard_snapshots(a["metrics"] for a in artifacts)
    metrics.set_gauge("epi4_shard_count", float(count))
    manifest = build_merged_manifest(artifacts, merged, digest)
    return MergedRun(
        solutions=merged,
        top_k_sha256=digest,
        nb=nb,
        n_shards=count,
        shards=artifacts,
        metrics=metrics,
        manifest=manifest,
    )


def build_merged_manifest(
    artifacts: list[dict], merged: list[Solution], digest: str
) -> RunManifest:
    """The global manifest of a sharded run (same schema contract as a
    single-process manifest, ``kind: epi4tensor-merged``).

    Deterministic by construction: every field is derived from shard
    identity/domain/result data, never from timings or process ids —
    two sharded runs of the same plan serialize byte-identically.
    """
    reference = artifacts[0]
    best = merged[0] if merged else Solution.worst()
    data = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "epi4tensor-merged",
        "config": {
            "identity": dict(reference["identity"]),
            "fingerprint": reference["fingerprint"],
        },
        "dataset": dict(reference["dataset"]),
        "execution": {
            "n_shards": len(artifacts),
            "nb": reference["nb"],
            "shards": [
                {
                    "index": a["shard"]["index"],
                    "iterations": [int(w) for w in a["shard"]["iterations"]],
                    "top_k_sha256": a["top_k_sha256"],
                    "model_tensor_ops": a.get("model", {}).get("tensor_ops"),
                }
                for a in artifacts
            ],
        },
        "versions": {
            "merge_schema": 1,
        },
        "results": {
            "top_k": len(merged),
            "best_quad": list(best.quad),
            "best_score_hex": float(best.score).hex(),
            "top_k_sha256": digest,
        },
    }
    return RunManifest(data)
