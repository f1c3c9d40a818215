"""Deterministic run manifests: the reproducibility contract of a search.

A :class:`RunManifest` captures everything needed to *re-run and verify* a
search — configuration, dataset digest, seeds, software versions, device
model — plus a digest of what came out (the ranked top-k quads with
bit-exact ``float.hex()`` scores).  It deliberately contains **no
timestamps and no timings**: two runs of the same configuration on the
same dataset must serialize to byte-identical JSON, whether they executed
sequentially or across threads, with AND+POPC or XOR+POPC engines, and
with or without the operand cache.  Golden tests and the CI artifact job
rely on exactly this property.

The module is duck-typed against the search driver (no imports from
:mod:`repro.core`), so :mod:`repro.core.search` can import it freely.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "build_run_manifest",
    "dataset_digest",
    "encoded_digest",
    "solutions_digest",
]

MANIFEST_SCHEMA_VERSION = 1

#: Keys every manifest must carry (schema contract checked by tests).
REQUIRED_KEYS = (
    "schema_version",
    "kind",
    "config",
    "dataset",
    "execution",
    "versions",
    "results",
)


def dataset_digest(dataset: Any) -> str:
    """SHA-256 over a raw :class:`~repro.datasets.dataset.Dataset`'s
    genotypes + phenotypes (shape-prefixed, C-order bytes)."""
    import numpy as np

    g = np.ascontiguousarray(dataset.genotypes)
    p = np.ascontiguousarray(dataset.phenotypes)
    h = hashlib.sha256()
    h.update(f"genotypes:{g.shape}:{g.dtype}".encode())
    h.update(g.tobytes())
    h.update(f"phenotypes:{p.shape}:{p.dtype}".encode())
    h.update(p.tobytes())
    return h.hexdigest()


def encoded_digest(encoded: Any) -> str:
    """SHA-256 over an :class:`~repro.datasets.encoding.EncodedDataset`'s
    packed bit-planes (both classes, shape-prefixed)."""
    import numpy as np

    h = hashlib.sha256()
    for name in ("controls", "cases"):
        bm = getattr(encoded, name)
        data = np.ascontiguousarray(bm.data)
        h.update(f"{name}:{data.shape}:{bm.n_bits}".encode())
        h.update(data.tobytes())
    return h.hexdigest()


def solutions_digest(solutions: Iterable[Any]) -> str:
    """SHA-256 over ranked solutions, bit-exact.

    Each solution contributes ``w,x,y,z:score.hex()`` — ``float.hex()``
    round-trips the IEEE-754 value exactly, so the digest changes iff any
    ranked quad or any score bit changes.
    """
    lines = []
    for sol in solutions:
        w, x, y, z = sol.quad
        lines.append(f"{w},{x},{y},{z}:{float(sol.score).hex()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """An immutable manifest; serialize with :meth:`to_json`."""

    data: dict[str, Any]

    def __post_init__(self) -> None:
        missing = [k for k in REQUIRED_KEYS if k not in self.data]
        if missing:
            raise ValueError(f"manifest missing required keys: {missing}")

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, fixed separators, trailing newline.

        Byte-identical across repeated runs of the same configuration —
        the reproducibility contract (see ``docs/observability.md``).
        """
        return (
            json.dumps(
                self.data, sort_keys=True, separators=(",", ": "), indent=1
            )
            + "\n"
        )

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical JSON."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(json.loads(text))

    def __getitem__(self, key: str) -> Any:
        return self.data[key]


def _config_dict(config: Any) -> dict[str, Any]:
    """JSON-safe view of a :class:`~repro.core.search.SearchConfig`."""
    import dataclasses

    out: dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and value != value:  # NaN
            value = "nan"
        elif isinstance(value, float) and value in (float("inf"), float("-inf")):
            value = "inf" if value > 0 else "-inf"
        out[f.name] = value
    return out


def build_run_manifest(
    search: Any,
    result: Any,
    dataset: Any | None = None,
    *,
    extra: Mapping[str, Any] | None = None,
) -> RunManifest:
    """Assemble the manifest for one finished search run.

    Args:
        search: the :class:`~repro.core.search.Epi4TensorSearch` instance
            (source of config, encoded dataset and spec).
        result: its :class:`~repro.core.search.SearchResult`.
        dataset: the raw dataset, if available — adds a raw-genotype
            digest next to the always-present encoded digest.
        extra: caller-provided deterministic context (e.g. the CLI's
            dataset-generation seed).  Must be JSON-serializable.

    Returns:
        A :class:`RunManifest` whose JSON is byte-stable across repeated
        and re-ordered (device threads finishing in any order) executions.
    """
    import numpy as np

    scheme = result.block_scheme
    data: dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "epi4tensor-search",
        "config": _config_dict(search.config),
        "dataset": {
            "n_snps": scheme.n_real_snps,
            "n_snps_padded": scheme.n_snps,
            "n_samples": result.n_samples,
            "n_controls": search.encoded.n_controls,
            "n_cases": search.encoded.n_cases,
            "encoded_sha256": encoded_digest(search.encoded),
            **(
                {"raw_sha256": dataset_digest(dataset)}
                if dataset is not None
                else {}
            ),
        },
        "execution": {
            "spec": result.spec_name,
            "engine": result.engine_name,
            "n_devices": result.n_devices,
            "block_size": scheme.block_size,
            "n_blocks": scheme.nb,
            "n_rounds": scheme.n_rounds,
            "unique_quads": int(scheme.unique_quads),
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repro": _repro_version(),
        },
        "results": {
            "top_k": len(result.top_solutions),
            "best_quad": list(result.best_quad),
            "best_score_hex": float(result.best_score).hex(),
            "top_k_sha256": solutions_digest(result.top_solutions),
        },
    }
    if extra:
        data["extra"] = dict(sorted(extra.items()))
    return RunManifest(data)


def _repro_version() -> str:
    try:
        import repro

        return getattr(repro, "__version__", "unknown")
    except Exception:  # pragma: no cover - defensive
        return "unknown"
