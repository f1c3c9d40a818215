"""Unified metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` per search run absorbs every accounting
source — the devices' work (each
:class:`~repro.device.virtual_gpu.VirtualGPU` counts its launches
straight into the run's registry), operand-cache hit/miss/eviction
statistics and the per-phase wall times — as **labeled series**
(``device="0"``, ``phase="combine"``, ...), so per-device attribution
survives threaded out-of-order completion by construction: a sample is
recorded under its device label at the recording site, never inferred
from completion order.

The catalogue emitted by a search run (all prefixed ``epi4_``):

=============================================  =========  =======================
name                                           type       labels
=============================================  =========  =======================
``epi4_phase_seconds_total``                   counter    ``phase``, ``device``
``epi4_rounds_total``                          counter    ``device``
``epi4_round_seconds``                         histogram  ``device``
``epi4_operand_requests_total``                counter    ``kind``, ``device``
``epi4_operand_executed_total``                counter    ``kind``, ``device``
``epi4_operand_cache_served_total``            counter    ``kind``, ``device``
``epi4_kernel_launches_total``                 counter    ``kernel``, ``device``
``epi4_tensor_ops_total``                      counter    ``form``, ``kernel``, ``device``
``epi4_combine_bit_ops_total``                 counter    ``device``
``epi4_pairwise_ops_total``                    counter    ``device``
``epi4_score_cells_total``                     counter    ``device``
``epi4_transfer_bytes_total``                  counter    ``device``
``epi4_cache_lookups_total``                   counter    ``result`` (hit/miss)
``epi4_cache_evictions_total``                 counter    —
``epi4_cache_resident_bytes`` / ``_peak``      gauge      —
``epi4_wall_seconds`` / ``epi4_quads_per_second_scaled``  gauge  —
``epi4_shard_index`` / ``epi4_shard_count``    gauge      — (shard workers only)
``epi4_shard_iterations_total``                counter    — (shard workers only)
=============================================  =========  =======================

The ``epi4_shard_*`` series appear only in shard-worker runs
(:mod:`repro.dist`), never in plain single-process runs — golden
fixtures of the plain metric set stay byte-stable.
:func:`merge_shard_snapshots` aggregates per-shard snapshots into one
registry (counters sum, so conservation laws survive the merge).

Invariants the property suite (``tests/test_properties.py``) locks in:
``hits + misses == lookups`` and
``executed + cache_served == requests`` per operand kind.

Export formats: a deterministic snapshot dict and Prometheus text
exposition (sorted series).  Time-valued series are inherently
non-deterministic; :func:`normalized_snapshot` zeroes them and sums over
the ``device`` label so golden tests can compare runs byte-for-byte
whichever device thread ran which iteration.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

__all__ = [
    "MetricsRegistry",
    "HistogramValue",
    "merge_shard_snapshots",
    "normalized_snapshot",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)

_LabelKey = tuple[tuple[str, str], ...]


#: :func:`_label_key` memo, keyed by the labels' items in call order.  A
#: search makes tens of thousands of labelled updates over a few dozen
#: label sets, so the sort and ``str`` calls run once per set.
_LABEL_KEYS: dict[tuple[tuple[str, Any], ...], _LabelKey] = {}
#: Distinct label sets memoized at most (beyond it keys are rebuilt).
_LABEL_KEYS_MAX = 4096


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    items = tuple(labels.items())
    key = _LABEL_KEYS.get(items)
    if key is None:
        key = tuple(sorted((k, str(v)) for k, v in items))
        # Only all-string label sets are memoized: 1, 1.0 and True are
        # equal as dict keys yet render differently.
        if len(_LABEL_KEYS) < _LABEL_KEYS_MAX and all(
            type(v) is str for _, v in items
        ):
            _LABEL_KEYS[items] = key
    return key


def _label_str(key: _LabelKey) -> str:
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}" if key else ""


def _format_value(value: float) -> str:
    if value != value or math.isinf(value):  # NaN / inf
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class HistogramValue:
    """Snapshot of one histogram series."""

    buckets: tuple[float, ...]
    counts: tuple[int, ...]  # per-bucket (non-cumulative), +Inf bucket last
    total: int
    sum: float


class _Histogram:
    __slots__ = ("buckets", "counts", "total", "sum")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += 1
        self.sum += value

    def snapshot(self) -> HistogramValue:
        return HistogramValue(
            buckets=self.buckets,
            counts=tuple(self.counts),
            total=self.total,
            sum=self.sum,
        )


class MetricsRegistry:
    """Thread-safe registry of labeled counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[_LabelKey, float]] = {}
        self._gauges: dict[str, dict[_LabelKey, float]] = {}
        self._hists: dict[str, dict[_LabelKey, _Histogram]] = {}
        self._hist_buckets: dict[str, tuple[float, ...]] = {}

    # -- recording ------------------------------------------------------ #

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to the counter series ``name{labels}``."""
        if value < 0:
            raise ValueError(f"counter {name} increment must be >= 0, got {value}")
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge series ``name{labels}`` to ``value``."""
        with self._lock:
            self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def add_gauge(self, name: str, delta: float, **labels: Any) -> None:
        """Add ``delta`` to the gauge series ``name{labels}`` (read and
        write under one lock hold, so concurrent adders never lose an
        update — used by the shard merge for ``*_total`` gauges)."""
        key = _label_key(labels)
        with self._lock:
            series = self._gauges.setdefault(name, {})
            series[key] = series.get(key, 0.0) + float(delta)

    def max_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Raise the gauge series ``name{labels}`` to ``value`` if it is
        below it (atomic compare-and-set; level gauges such as cache
        peaks take the max over shards)."""
        key = _label_key(labels)
        with self._lock:
            series = self._gauges.setdefault(name, {})
            current = series.get(key)
            if current is None or float(value) > current:
                series[key] = float(value)

    def merge_histogram(
        self,
        name: str,
        labels: Mapping[str, Any],
        buckets: Iterable[float],
        counts: Iterable[int],
        total: int,
        sum_: float,
    ) -> None:
        """Fold one exported histogram series into this registry
        bucket-wise.  Bucket layouts must match any prior observations
        of the same series.

        Raises:
            ValueError: on a bucket-layout mismatch.
        """
        key = _label_key(labels)
        bounds = tuple(float(b) for b in buckets)
        with self._lock:
            series = self._hists.setdefault(name, {})
            hist = series.get(key)
            if hist is None:
                hist = _Histogram(bounds)
                series[key] = hist
            elif hist.buckets != bounds:
                raise ValueError(
                    f"histogram {name}{_label_str(key)} has mismatched "
                    "bucket layouts across shards"
                )
            for i, count in enumerate(counts):
                hist.counts[i] += int(count)
            hist.total += int(total)
            hist.sum += float(sum_)

    def register_histogram(
        self, name: str, buckets: Iterable[float]
    ) -> None:
        """Declare custom bucket bounds for histogram ``name`` (must be
        strictly increasing; call before the first ``observe``)."""
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(f"buckets must be strictly increasing, got {bounds}")
        with self._lock:
            if name in self._hists:
                raise ValueError(f"histogram {name} already has observations")
            self._hist_buckets[name] = bounds

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` into the histogram series ``name{labels}``."""
        key = _label_key(labels)
        with self._lock:
            series = self._hists.setdefault(name, {})
            hist = series.get(key)
            if hist is None:
                hist = _Histogram(self._hist_buckets.get(name, DEFAULT_BUCKETS))
                series[key] = hist
            hist.observe(float(value))

    # -- queries -------------------------------------------------------- #

    def value(self, name: str, **labels: Any) -> float:
        """Current value of one counter/gauge series (0.0 if absent)."""
        key = _label_key(labels)
        with self._lock:
            if name in self._counters:
                return self._counters[name].get(key, 0.0)
            if name in self._gauges:
                return self._gauges[name].get(key, 0.0)
        return 0.0

    def series(self, name: str) -> dict[_LabelKey, float]:
        """All label-series of one counter/gauge metric."""
        with self._lock:
            if name in self._counters:
                return dict(self._counters[name])
            if name in self._gauges:
                return dict(self._gauges[name])
        return {}

    def _matching(self, name: str, match: Mapping[str, Any]):
        """``(labels, value)`` of every series whose labels match ``match``."""
        want = {k: str(v) for k, v in match.items()}
        for key, value in self.series(name).items():
            labels = dict(key)
            if all(labels.get(k) == v for k, v in want.items()):
                yield labels, value

    def total(self, name: str, **match: Any) -> float:
        """Sum of a metric over all series whose labels match ``match``."""
        out = 0.0
        for _, value in self._matching(name, match):
            out += value
        return out

    def sum_by(self, name: str, label: str, **match: Any) -> dict[str, float]:
        """Sums of a metric grouped by one label's values, over the series
        whose labels match ``match``."""
        out: dict[str, float] = {}
        for labels, value in self._matching(name, match):
            group = labels.get(label, "")
            out[group] = out.get(group, 0.0) + value
        return out

    def histogram(self, name: str, **labels: Any) -> HistogramValue | None:
        with self._lock:
            series = self._hists.get(name, {})
            hist = series.get(_label_key(labels))
            return hist.snapshot() if hist is not None else None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(
                set(self._counters) | set(self._gauges) | set(self._hists)
            )

    # -- export --------------------------------------------------------- #

    def snapshot(self) -> dict[str, Any]:
        """Deterministic nested-dict snapshot (sorted names and series)."""
        with self._lock:
            counters = {
                name: {
                    _label_str(k): v for k, v in sorted(series.items())
                }
                for name, series in sorted(self._counters.items())
            }
            gauges = {
                name: {
                    _label_str(k): v for k, v in sorted(series.items())
                }
                for name, series in sorted(self._gauges.items())
            }
            hists = {
                name: {
                    _label_str(k): {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "count": h.total,
                        "sum": h.sum,
                    }
                    for k, h in sorted(series.items())
                }
                for name, series in sorted(self._hists.items())
            }
        return {"counters": counters, "gauges": gauges, "histograms": hists}

    def to_prometheus(self) -> str:
        """Prometheus text exposition (stable ordering), trailing newline."""
        lines: list[str] = []
        with self._lock:
            for name, series in sorted(self._counters.items()):
                lines.append(f"# TYPE {name} counter")
                for key, value in sorted(series.items()):
                    lines.append(f"{name}{_label_str(key)} {_format_value(value)}")
            for name, series in sorted(self._gauges.items()):
                lines.append(f"# TYPE {name} gauge")
                for key, value in sorted(series.items()):
                    lines.append(f"{name}{_label_str(key)} {_format_value(value)}")
            for name, series in sorted(self._hists.items()):
                lines.append(f"# TYPE {name} histogram")
                for key, hist in sorted(series.items()):
                    cumulative = 0
                    for bound, count in zip(hist.buckets, hist.counts):
                        cumulative += count
                        labels = dict(key)
                        labels["le"] = _format_value(bound)
                        lines.append(
                            f"{name}_bucket{_label_str(_label_key(labels))} "
                            f"{cumulative}"
                        )
                    labels = dict(key)
                    labels["le"] = "+Inf"
                    lines.append(
                        f"{name}_bucket{_label_str(_label_key(labels))} "
                        f"{hist.total}"
                    )
                    lines.append(
                        f"{name}_sum{_label_str(key)} {_format_value(hist.sum)}"
                    )
                    lines.append(f"{name}_count{_label_str(key)} {hist.total}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry({len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, {len(self._hists)} histograms)"
            )


# ---------------------------------------------------------------------- #


def _is_time_like(name: str) -> bool:
    return (
        "seconds" in name
        or "per_second" in name
        or name.endswith("_bytes")  # resident/peak depend on eviction timing
        and "transfer" not in name
    )


def normalized_snapshot(registry: MetricsRegistry) -> dict[str, Any]:
    """Deterministic view of a registry for golden comparisons.

    - time-valued series (``*seconds*``, throughput gauges) are zeroed;
    - cache byte gauges are zeroed (they depend on eviction timing);
    - counter/gauge series are **summed over the** ``device`` **label**
      (under the dynamic multi-device schedule, *which* device ran an
      iteration is racy; the totals are not);
    - histograms are reduced to their total observation counts.
    """
    snap = registry.snapshot()
    out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for kind in ("counters", "gauges"):
        for name, series in snap[kind].items():
            agg: dict[str, float] = {}
            for label_str, value in series.items():
                stripped = _strip_device(label_str)
                agg[stripped] = agg.get(stripped, 0.0) + (
                    0.0 if _is_time_like(name) else value
                )
            out[kind][name] = dict(sorted(agg.items()))
    for name, series in snap["histograms"].items():
        total = sum(h["count"] for h in series.values())
        out["histograms"][name] = {"count": total}
    return out


def _strip_device(label_str: str) -> str:
    if not label_str:
        return label_str
    inner = label_str.strip("{}")
    kept = [
        part
        for part in inner.split(",")
        if part and not part.startswith('device="')
    ]
    return "{" + ",".join(kept) + "}" if kept else ""


def _parse_label_str(label_str: str) -> dict[str, str]:
    """Inverse of :func:`_label_str` (labels never contain quotes or
    commas — they are device ids, phase names, kernel names)."""
    if not label_str:
        return {}
    out: dict[str, str] = {}
    for part in label_str.strip("{}").split(","):
        name, _, value = part.partition("=")
        out[name] = value.strip('"')
    return out


#: Per-shard identity gauges that must not survive a cross-shard merge
#: (a merged registry has no single shard index).
_SHARD_IDENTITY_GAUGES = frozenset({"epi4_shard_index"})


def merge_shard_snapshots(snapshots: "Iterable[dict]") -> MetricsRegistry:
    """Aggregate per-shard :meth:`MetricsRegistry.snapshot` dicts into
    one registry — the metrics side of the deterministic shard merge.

    Aggregation rules, by series type:

    - **counters** sum (they are extensive: operand requests, tensor
      ops, commits...).  Every conservation law that held per shard —
      e.g. ``requests == executed + cache_served`` per operand kind —
      therefore still holds on the merged registry.
    - **gauges** sum when the name ends in ``_total`` (totals exported
      through gauges, e.g. the journal counters) and otherwise take the
      max over shards (levels: wall seconds of concurrently running
      shards, cache peaks).  ``epi4_shard_index`` is dropped — a merged
      run has no single index.
    - **histograms** merge bucket-wise; differing bucket layouts for the
      same series are refused.
    """
    merged = MetricsRegistry()
    for snap in snapshots:
        for name, series in snap.get("counters", {}).items():
            for label_str, value in series.items():
                merged.inc(name, float(value), **_parse_label_str(label_str))
        for name, series in snap.get("gauges", {}).items():
            if name in _SHARD_IDENTITY_GAUGES:
                continue
            for label_str, value in series.items():
                labels = _parse_label_str(label_str)
                if name.endswith("_total"):
                    merged.add_gauge(name, float(value), **labels)
                else:
                    merged.max_gauge(name, float(value), **labels)
        for name, series in snap.get("histograms", {}).items():
            for label_str, data in series.items():
                merged.merge_histogram(
                    name,
                    _parse_label_str(label_str),
                    data["buckets"],
                    data["counts"],
                    data["count"],
                    data["sum"],
                )
    return merged
