"""Tests for the text report generator."""

import re

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.reporting import format_search_report


def _result(top_k=3, n_gpus=1, **cfg):
    ds = generate_random_dataset(12, 150, seed=1)
    res = Epi4TensorSearch(
        ds, SearchConfig(block_size=4, top_k=top_k, **cfg), n_gpus=n_gpus
    ).run()
    return ds, res


class TestReport:
    def test_contains_all_sections(self):
        ds, res = _result()
        report = format_search_report(res, ds)
        for needle in (
            "ranked solutions",
            "execution profile",
            "device work counters",
            "calibrated model projection",
            "tensor ops (raw)",
        ):
            assert needle in report, needle

    def test_top_k_rows_present(self):
        ds, res = _result(top_k=4)
        report = format_search_report(res, ds)
        for rank in range(1, 5):
            assert f"#{rank}" in report

    def test_snp_names_resolved(self):
        ds, res = _result()
        report = format_search_report(res, ds)
        assert "snp" in report

    def test_works_without_dataset(self):
        _, res = _result()
        report = format_search_report(res)
        assert "ranked solutions" in report

    def test_model_projection_optional(self):
        ds, res = _result()
        report = format_search_report(res, ds, include_model_projection=False)
        assert "calibrated model projection" not in report

    def test_multi_device_counters(self):
        ds, res = _result(n_gpus=3)
        report = format_search_report(res, ds)
        assert "3x A100 PCIe" in report


class TestCacheSection:
    def test_absent_when_cache_disabled(self):
        ds, res = _result(cache_mb=None)
        assert "round-operand cache" not in format_search_report(res, ds)

    def test_present_with_lookups_identity(self):
        ds, res = _result(cache_mb=2)
        report = format_search_report(res, ds)
        assert "round-operand cache" in report
        m = re.search(
            r"lookups\s+:\s+(\d+) \((\d+) hits / (\d+) misses", report
        )
        assert m, "cache lookup line missing"
        lookups, hits, misses = map(int, m.groups())
        assert lookups == hits + misses
        assert "% hit rate" in report
        assert "budget 2.0 MB" in report

    def test_unbounded_budget_spelled_out(self):
        ds, res = _result(cache_mb=float("inf"))
        assert "budget unbounded" in format_search_report(res, ds)


class TestObservabilitySection:
    def test_phase_seconds_by_device_table(self):
        ds, res = _result(n_gpus=2, cache_mb=2)
        report = format_search_report(res, ds)
        assert "observability (per-device attribution)" in report
        assert "phase seconds by device" in report
        # tensor4 is charged on a device label, encode on the host label
        assert re.search(r"tensor4\s+dev \d", report)
        assert re.search(r"encode\s+dev host", report)

    def test_rounds_by_device_line(self):
        ds, res = _result(n_gpus=2)
        report = format_search_report(res, ds)
        m = re.findall(r"dev (\d): (\d+)", report.split("rounds by device")[1].splitlines()[0])
        assert m, "rounds-by-device line missing"

    def test_operand_requests_identity_line(self):
        ds, res = _result(cache_mb=2)
        report = format_search_report(res, ds)
        m = re.search(
            r"operand requests\s+:\s+(\d+) = (\d+) executed \+ (\d+) "
            r"cache-served",
            report,
        )
        assert m, "operand request identity line missing"
        requests, executed, served = map(int, m.groups())
        assert requests == executed + served
        assert served > 0
