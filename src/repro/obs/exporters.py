"""File exporters for the observability artifacts.

Three machine-checkable artifacts per run:

- **JSONL trace** (``--trace-out``): one span per line, canonical
  (path-sorted) order, schema defined by
  :meth:`repro.obs.trace.SpanRecord.to_dict`.
- **Prometheus text metrics** (``--metrics-out``): the standard text
  exposition format, series sorted, scrape-ready.
- **Run manifest** (``--manifest-out``): canonical JSON, byte-identical
  across repeated runs of the same configuration (the reproducibility
  contract — see :mod:`repro.obs.manifest`).

All writers go through :func:`repro.utils.fs.write_atomic` (write tmp →
``os.fsync`` → ``os.replace`` → directory fsync), so a crashed run never
leaves a half-written artifact behind and a published artifact survives
power loss.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecord, Tracer, trace_lines
from repro.utils.fs import write_atomic

__all__ = [
    "write_trace",
    "write_metrics",
    "write_manifest",
    "export_run_artifacts",
]


def write_trace(
    path: str | os.PathLike,
    source: Tracer | Iterable[SpanRecord],
    *,
    normalized: bool = False,
) -> str:
    """Write a JSONL trace file; returns the path written."""
    records = source.records() if isinstance(source, Tracer) else list(source)
    lines = trace_lines(records, normalized=normalized)
    return write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def write_metrics(path: str | os.PathLike, registry: MetricsRegistry) -> str:
    """Write Prometheus text-format metrics; returns the path written."""
    return write_atomic(path, registry.to_prometheus())


def write_manifest(path: str | os.PathLike, manifest: RunManifest) -> str:
    """Write the canonical-JSON manifest; returns the path written."""
    return write_atomic(path, manifest.to_json())


def export_run_artifacts(
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    manifest: RunManifest | None = None,
    trace_out: str | None = None,
    metrics_out: str | None = None,
    manifest_out: str | None = None,
) -> dict[str, str]:
    """Write whichever artifacts were requested; returns name -> path."""
    written: dict[str, Any] = {}
    if trace_out:
        if tracer is None:
            raise ValueError("trace_out requested but no tracer provided")
        written["trace"] = write_trace(trace_out, tracer)
    if metrics_out:
        if metrics is None:
            raise ValueError("metrics_out requested but no registry provided")
        written["metrics"] = write_metrics(metrics_out, metrics)
    if manifest_out:
        if manifest is None:
            raise ValueError("manifest_out requested but no manifest provided")
        written["manifest"] = write_manifest(manifest_out, manifest)
    return written
