"""Observability layer: tracing, metrics and run manifests.

Three pillars, one per module:

- :mod:`repro.obs.trace` — nested :class:`Span` tracing of the search
  execution (run → device → outer → round → kernel phases), exported as
  canonical JSONL;
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters/gauges/histograms unifying device work, operand-cache
  statistics and per-device phase times, exported
  as Prometheus text;
- :mod:`repro.obs.manifest` — a deterministic :class:`RunManifest`
  (config, dataset digest, seeds, versions, bit-exact top-k digest) that
  is byte-identical across repeated and re-ordered runs.

The default tracer is the no-op :data:`NULL_TRACER`; instrumentation is
always wired but costs nothing until a real :class:`Tracer` is attached.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    build_run_manifest,
    dataset_digest,
    encoded_digest,
    solutions_digest,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    HistogramValue,
    MetricsRegistry,
    normalized_snapshot,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    normalize_records,
    span_tree_shape,
    trace_lines,
)
from repro.obs.exporters import (
    export_run_artifacts,
    write_manifest,
    write_metrics,
    write_trace,
)

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "build_run_manifest",
    "dataset_digest",
    "encoded_digest",
    "solutions_digest",
    "DEFAULT_BUCKETS",
    "HistogramValue",
    "MetricsRegistry",
    "normalized_snapshot",
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "normalize_records",
    "span_tree_shape",
    "trace_lines",
    "export_run_artifacts",
    "write_manifest",
    "write_metrics",
    "write_trace",
]
