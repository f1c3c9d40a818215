"""Observability wiring of the search driver: span taxonomy, unified
metrics, and the per-device attribution fix.

The attribution regression this locks in: phase times and work counters
used to be accumulated into *shared* per-phase timers, so when threaded
device workers finished out of order the per-device breakdown was lost
(everything collapsed into one unattributed sum).  They are now recorded
at the call site as ``device``-labeled series in the
:class:`~repro.obs.metrics.MetricsRegistry`, which makes aggregation
commutative: any completion order yields identical aggregates.
"""

from __future__ import annotations

import os

import pytest

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.obs.metrics import MetricsRegistry, normalized_snapshot
from repro.obs.trace import Tracer, span_tree_shape
from tests.helpers import round_work


def _dataset(seed: int = 29):
    return generate_random_dataset(24, 96, seed=seed)


def _run(
    *, tracer=None, n_gpus=1, metrics=None, **cfg
) -> tuple[Epi4TensorSearch, "object"]:
    cfg.setdefault("block_size", 8)
    search = Epi4TensorSearch(
        _dataset(),
        SearchConfig(**cfg),
        n_gpus=n_gpus,
        tracer=tracer,
        metrics=metrics,
    )
    return search, search.run()


class TestSpanTaxonomy:
    def test_sequential_tree_matches_documented_shape(self):
        tr = Tracer()
        search, _ = _run(tracer=tr)
        paths = span_tree_shape(tr.records())
        assert "encode#0" in paths
        assert "run#0" in paths
        assert "run#0/prepare#0" in paths
        assert "run#0/prepare#0/pairwise#0" in paths
        assert "run#0/reduce#0" in paths
        assert "run#0/device[0]#0" in paths
        assert "run#0/device[0]#0/outer[0]#0" in paths
        # every outer iteration appears exactly once
        outers = [p for p in paths if p.endswith("#0") and "/outer[" in p and p.count("/") == 2]
        assert len(outers) == search.scheme.nb

    def test_round_children(self):
        tr = Tracer()
        _run(tracer=tr)
        paths = span_tree_shape(tr.records())
        outer = "run#0/device[0]#0/outer[0]#0"

        def children(prefix):
            return {
                p[len(prefix) + 1:] for p in paths if p.startswith(prefix + "/")
            }

        # Device launches run in the stage task of the round's group; the
        # round span covers host scoring only.
        stage = children(f"{outer}/stage[0,0]#0")
        assert {c.split("#")[0] for c in stage} == {
            "combine", "tensor3", "tensor4",
        }
        assert {"tensor4#0", "tensor4#1"} <= stage
        assert children(f"{outer}/round[0,0,0,0]#0") == {
            "derive#0", "score#0", "reduce#0",
        }

    def test_round_count_matches_scheme(self):
        tr = Tracer()
        search, _ = _run(tracer=tr)
        rounds = [p for p in span_tree_shape(tr.records()) if "/round[" in p]
        # each round path contributes itself + 3 children
        assert len([p for p in rounds if p.endswith("]#0")]) == search.scheme.n_rounds

    def test_threaded_device_spans_parent_under_run(self):
        tr = Tracer()
        _run(tracer=tr, n_gpus=2, cache_mb=2)
        paths = span_tree_shape(tr.records())
        device_roots = [p for p in paths if p.startswith("device[")]
        assert device_roots == []  # never orphaned at the root
        assert "run#0/device[0]#0" in paths
        assert "run#0/device[1]#0" in paths

    def test_one_device_span_per_device_on_a_small_host(self, monkeypatch):
        # One host thread per device, however few cores the host has:
        # a 4-device search on a 2-CPU host still runs all four devices.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        tr = Tracer()
        _run(tracer=tr, n_gpus=4, block_size=4)
        paths = span_tree_shape(tr.records())
        devices = sorted(p for p in paths if p.startswith("run#0/device["))
        assert [p for p in devices if p.count("/") == 1] == [
            f"run#0/device[{d}]#0" for d in range(4)
        ]

    def test_default_tracer_is_noop(self):
        search, result = _run()
        assert search.tracer.records() == []
        assert result.solution is not None


class TestUnifiedMetrics:
    def test_operand_invariant_requests_eq_executed_plus_served(self):
        for cache_mb in (None, 2):
            search, _ = _run(cache_mb=cache_mb)
            m = search.metrics
            for kind in ("combine", "sweep"):
                req = m.total("epi4_operand_requests_total", kind=kind)
                exe = m.total("epi4_operand_executed_total", kind=kind)
                srv = m.total("epi4_operand_cache_served_total", kind=kind)
                assert req == exe + srv
                assert req > 0
            if cache_mb:
                assert m.total("epi4_operand_cache_served_total") > 0

    @pytest.mark.parametrize("n_gpus", [1, 2])
    @pytest.mark.parametrize("cache_mb", [None, float("inf")])
    def test_executed_combines_equal_combine_launches(self, cache_mb, n_gpus):
        # Every combine a sweep forms goes through the ledger, so the
        # executed count is the launch count with or without the cache.
        search, _ = _run(cache_mb=cache_mb, n_gpus=n_gpus)
        m = search.metrics
        assert m.total("epi4_operand_executed_total", kind="combine") == (
            m.total("epi4_kernel_launches_total", kernel="combine")
        )

    def test_rounds_total_matches_scheme(self):
        search, _ = _run()
        assert (
            search.metrics.total("epi4_rounds_total")
            == search.scheme.n_rounds
        )
        h = search.metrics.histogram("epi4_round_seconds", device="0")
        assert h is not None and h.total == search.scheme.n_rounds

    def test_phase_seconds_canonical_keys_preserved(self):
        _, result = _run()
        assert set(result.phase_seconds) == {
            "encode", "pairwise", "combine", "tensor3", "tensor4", "score",
        }
        for phase in ("pairwise", "combine", "tensor3", "tensor4", "score"):
            assert result.phase_seconds[phase] > 0

    def test_kernel_counters_absorbed_with_device_labels(self):
        search, _ = _run(n_gpus=2)
        m = search.metrics
        launches = m.sum_by("epi4_kernel_launches_total", "device")
        assert set(launches) == {"0", "1"}
        assert all(launches.values())
        assert sum(launches.values()) == m.total("epi4_kernel_launches_total")
        # Each device received the full dataset (§3.6), under its own label.
        nbytes = search.encoded.nbytes
        assert m.sum_by("epi4_transfer_bytes_total", "device") == {
            "0": nbytes, "1": nbytes,
        }

    def test_wall_seconds_gauge_set(self):
        search, result = _run()
        assert search.metrics.value("epi4_wall_seconds") == pytest.approx(
            result.wall_seconds
        )
        assert search.metrics.value(
            "epi4_quads_per_second_scaled"
        ) == pytest.approx(result.quads_per_second_scaled)

    def test_fresh_registry_per_run(self):
        search, _ = _run()
        first = search.metrics.total("epi4_rounds_total")
        search.run()
        assert search.metrics.total("epi4_rounds_total") == first

    def test_user_registry_accumulates(self):
        registry = MetricsRegistry()
        search = Epi4TensorSearch(
            _dataset(),
            SearchConfig(block_size=8),
            metrics=registry,
        )
        search.run()
        once = registry.total("epi4_rounds_total")
        search.run()
        assert registry.total("epi4_rounds_total") == 2 * once
        assert search.metrics is registry


class TestRepeatedRuns:
    """Devices count into the run's registry, so a run's device work
    series hold that run's work only — nothing carries over from an
    earlier run of the same search."""

    def test_second_run_reports_the_same_snapshot(self):
        search, _ = _run()
        first = normalized_snapshot(search.metrics)
        search.run()
        assert normalized_snapshot(search.metrics) == first

    def test_user_registry_holds_exactly_twice_one_run(self):
        _, once = _run(metrics=MetricsRegistry())
        registry = MetricsRegistry()
        search = Epi4TensorSearch(
            _dataset(), SearchConfig(block_size=8), metrics=registry
        )
        search.run()
        search.run()
        one = normalized_snapshot(once.metrics)["counters"]
        two = normalized_snapshot(registry)["counters"]
        assert two.keys() == one.keys()
        for name, series in one.items():
            assert two[name] == {k: 2 * v for k, v in series.items()}, name


class TestPerDeviceAttribution:
    """The out-of-order completion fix (labeled series, not shared timers)."""

    def test_permuted_recording_orders_yield_identical_aggregates(self):
        # The exact samples a 2-device run records, committed in two
        # different completion orders — the registry must not care.
        samples = [
            ("epi4_phase_seconds_total", 0.25, {"phase": "tensor4", "device": "0"}),
            ("epi4_phase_seconds_total", 0.50, {"phase": "tensor4", "device": "1"}),
            ("epi4_phase_seconds_total", 0.125, {"phase": "score", "device": "0"}),
            ("epi4_rounds_total", 7, {"device": "0"}),
            ("epi4_rounds_total", 3, {"device": "1"}),
            ("epi4_operand_requests_total", 11, {"kind": "combine", "device": "1"}),
        ]
        a, b = MetricsRegistry(), MetricsRegistry()
        for name, value, labels in samples:
            a.inc(name, value, **labels)
        for name, value, labels in reversed(samples):
            b.inc(name, value, **labels)
        assert a.snapshot() == b.snapshot()
        assert a.to_prometheus() == b.to_prometheus()

    def test_threaded_run_keeps_per_device_phase_series(self):
        search, result = _run(
            n_gpus=2, cache_mb=2, top_k=2
        )
        by_device = result.phase_seconds_by_device
        for phase in ("tensor4", "score"):
            devices = set(by_device[phase])
            # both workers recorded under their own label
            assert devices <= {"0", "1"}
            assert devices, f"no device series for {phase}"
        assert by_device["encode"] == {
            "host": pytest.approx(by_device["encode"]["host"])
        }

    def test_phase_totals_equal_sum_of_device_series(self):
        search, result = _run(n_gpus=2, cache_mb=2)
        for phase, total in result.phase_seconds.items():
            per_device = result.phase_seconds_by_device.get(phase, {})
            assert total == pytest.approx(sum(per_device.values()))

    def test_normalized_snapshot_identical_seq_vs_threaded(self):
        # 1 device on the calling thread vs 2 device threads.  The budget
        # must cover the full cacheable working set (including the
        # cross-round full3 triplet tables): below it, eviction counts
        # legitimately depend on thread interleaving.
        snaps = []
        # prune=False: prune counters depend on when the running top-k
        # threshold tightens, which thread interleaving perturbs.
        for n_gpus in (1, 2):
            search, _ = _run(n_gpus=n_gpus, cache_mb=4, prune=False)
            snaps.append(round_work(normalized_snapshot(search.metrics)))
        assert snaps[0] == snaps[1]

    def test_executed_assignment_covers_all_outer_iterations(self):
        search, result = _run(n_gpus=2, cache_mb=2)
        ran = sorted(wi for worker in result.executed_assignment for wi in worker)
        assert ran == list(range(search.scheme.nb))
