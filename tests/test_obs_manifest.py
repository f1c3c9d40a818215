"""Unit tests for run manifests and the artifact exporters."""

from __future__ import annotations

import json

import pytest

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.obs.exporters import (
    export_run_artifacts,
    write_manifest,
    write_metrics,
    write_trace,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    REQUIRED_KEYS,
    RunManifest,
    build_run_manifest,
    dataset_digest,
    encoded_digest,
    solutions_digest,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from tests.helpers import assert_matches_oracle, brute_force_topk


@pytest.fixture(scope="module")
def tiny_run():
    ds = generate_random_dataset(16, 96, seed=11)
    search = Epi4TensorSearch(
        ds, SearchConfig(block_size=8, top_k=3), n_gpus=1
    )
    result = search.run()
    return ds, search, result


class TestDigests:
    def test_dataset_digest_stable_and_sensitive(self):
        a = generate_random_dataset(10, 64, seed=1)
        b = generate_random_dataset(10, 64, seed=1)
        c = generate_random_dataset(10, 64, seed=2)
        assert dataset_digest(a) == dataset_digest(b)
        assert dataset_digest(a) != dataset_digest(c)

    def test_encoded_digest_stable(self, tiny_run):
        _, search, _ = tiny_run
        assert encoded_digest(search.encoded) == encoded_digest(search.encoded)

    def test_solutions_digest_bit_exact(self, tiny_run):
        _, _, result = tiny_run
        d1 = solutions_digest(result.top_solutions)
        d2 = solutions_digest(list(result.top_solutions))
        assert d1 == d2
        # order matters: reversing the ranking changes the digest
        assert d1 != solutions_digest(result.top_solutions[::-1])


class TestRunManifest:
    def test_required_keys_enforced(self):
        with pytest.raises(ValueError, match="missing required keys"):
            RunManifest({"schema_version": 1})

    def test_build_has_schema(self, tiny_run):
        ds, search, result = tiny_run
        m = build_run_manifest(search, result, dataset=ds)
        for key in REQUIRED_KEYS:
            assert key in m.data
        assert m["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert m["kind"] == "epi4tensor-search"
        assert m["dataset"]["n_samples"] == 96
        assert m["results"]["top_k"] == 3
        assert m["results"]["best_quad"] == list(result.best_quad)
        assert m["config"]["block_size"] == 8
        assert m["config"]["top_k"] == 3

    def test_json_round_trip(self, tiny_run):
        ds, search, result = tiny_run
        m = build_run_manifest(search, result, dataset=ds)
        again = RunManifest.from_json(m.to_json())
        assert again.data == m.data
        assert again.digest == m.digest

    def test_json_is_canonical(self, tiny_run):
        ds, search, result = tiny_run
        text = build_run_manifest(search, result, dataset=ds).to_json()
        assert text.endswith("\n")
        # sorted keys at the top level
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)

    def test_byte_identical_across_repeat_runs(self):
        ds = generate_random_dataset(16, 96, seed=13)

        def one():
            s = Epi4TensorSearch(
                ds, SearchConfig(block_size=8, top_k=2), n_gpus=2
            )
            return build_run_manifest(s, s.run(), dataset=ds).to_json()

        assert one() == one()

    def test_results_identical_sequential_vs_threaded(self):
        # 1 device on the calling thread vs 2 device threads: identical
        # results, and equal to the independent oracle.
        ds = generate_random_dataset(16, 96, seed=17)
        expected = brute_force_topk(ds, 2)
        sections = []
        for n_gpus in (1, 2):
            s = Epi4TensorSearch(
                ds,
                SearchConfig(block_size=8, top_k=2, cache_mb=2),
                n_gpus=n_gpus,
            )
            result = s.run()
            assert_matches_oracle(result, expected)
            m = build_run_manifest(s, result, dataset=ds)
            sections.append((m["results"], m["dataset"]))
        assert sections[0] == sections[1]

    def test_topk_digest_identical_across_engines(self):
        ds = generate_random_dataset(16, 96, seed=19)
        digests = set()
        for kind in ("and_popc", "xor_popc"):
            s = Epi4TensorSearch(
                ds, SearchConfig(block_size=8, top_k=3, engine_kind=kind)
            )
            m = build_run_manifest(s, s.run(), dataset=ds)
            digests.add(m["results"]["top_k_sha256"])
        assert len(digests) == 1

    def test_extra_context_included(self, tiny_run):
        ds, search, result = tiny_run
        m = build_run_manifest(
            search, result, dataset=ds, extra={"cli_seed": 7}
        )
        assert m["extra"] == {"cli_seed": 7}


class TestExporters:
    def test_write_trace_jsonl(self, tmp_path):
        tr = Tracer()
        with tr.span("run"):
            with tr.span("reduce"):
                pass
        path = write_trace(tmp_path / "trace.jsonl", tr)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["path"] == "run#0"

    def test_write_trace_normalized_stable(self, tmp_path):
        def lines():
            tr = Tracer()
            with tr.span("run"):
                pass
            p = write_trace(tmp_path / "t.jsonl", tr, normalized=True)
            return open(p, encoding="utf-8").read()

        assert lines() == lines()

    def test_write_metrics_prometheus(self, tmp_path):
        m = MetricsRegistry()
        m.inc("epi4_rounds_total", 5, device="0")
        path = write_metrics(tmp_path / "m.prom", m)
        text = open(path, encoding="utf-8").read()
        assert 'epi4_rounds_total{device="0"} 5' in text

    def test_write_manifest(self, tmp_path, tiny_run):
        ds, search, result = tiny_run
        manifest = build_run_manifest(search, result, dataset=ds)
        path = write_manifest(tmp_path / "run.json", manifest)
        assert RunManifest.from_json(
            open(path, encoding="utf-8").read()
        ).digest == manifest.digest

    def test_export_run_artifacts_selective(self, tmp_path):
        m = MetricsRegistry()
        written = export_run_artifacts(
            metrics=m, metrics_out=str(tmp_path / "m.prom")
        )
        assert set(written) == {"metrics"}

    def test_export_missing_source_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no tracer"):
            export_run_artifacts(trace_out=str(tmp_path / "t.jsonl"))
        with pytest.raises(ValueError, match="no registry"):
            export_run_artifacts(metrics_out=str(tmp_path / "m.prom"))
        with pytest.raises(ValueError, match="no manifest"):
            export_run_artifacts(manifest_out=str(tmp_path / "x.json"))

    def test_atomic_write_creates_parents(self, tmp_path):
        m = MetricsRegistry()
        path = write_metrics(tmp_path / "deep" / "dir" / "m.prom", m)
        assert open(path, encoding="utf-8").read().endswith("\n")
