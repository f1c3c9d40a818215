"""Checks of the end-to-end benchmark itself (not of the program)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q

The smoke test runs all four workloads at their ``--smoke`` shapes, which
takes about 20 seconds.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_e2e  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_metric_names() -> list[str]:
    return list(
        layers.layer_metrics(
            layers.LayerTracer(),
            defaultdict(float),
            wall_s=1.0,
            run_attributed_s=0.0,
            untraced_wall_s=1.0,
            shard_walls=[],
        )
    )


def test_benchmark_json_schema():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert 1 <= BENCH["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == layer_metric_names()


def test_result_file_schema():
    e2e = {m["name"] for m in BENCH["end_to_end"]} | {"error_rate"}
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    records = json.loads((HERE / "BENCH_e2e.json").read_text())
    assert records
    for record in records:
        assert record["schema"] == bench_e2e.SCHEMA
        assert {"nproc", "cpu_model", "python", "numpy", "blas", "blas_threads_env",
                "git_commit", "seed"} <= set(record["host"])
        for name, result in record["workloads"].items():
            assert name in workloads.WORKLOADS
            assert set(result["end_to_end"]) == e2e
            assert list(result["per_layer"]) == per_layer
            values = [s["median"] for s in result["end_to_end"].values()]
            values += list(result["per_layer"].values())
            assert all(math.isfinite(v) for v in values)


def test_self_time_of_nested_spans_on_two_threads():
    script = threading.local()
    tracer = layers.LayerTracer(clock=lambda: script.times.pop(0))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)

    def run(times):
        script.times = list(times)
        outer()

    # outer [0, 10] around inner [1, 3] and [4, 8] on the main thread.
    run([0, 1, 3, 4, 8, 10])
    # outer [100, 105] around inner [101, 102] and [103, 104] elsewhere.
    other = threading.Thread(target=run, args=([100, 101, 102, 103, 104, 105],))
    other.start()
    other.join(timeout=10)
    assert not other.is_alive()
    assert tracer.self_s["outer"] == (10 - 6) + (5 - 2)
    assert tracer.self_s["inner"] == 6 + 2
    assert tracer.total_s["outer"] == 15
    assert dict(tracer.calls) == {"inner": 4, "outer": 2}
    # Only the main thread's outermost span counts towards attribution.
    assert tracer.main_root_s == 10


def test_wrappers_are_restored_after_a_traced_run_that_raises():
    import importlib

    from repro.device.streams import HostStream

    def owners():
        for _, module, cls, attr in layers.WRAPPED:
            owner = importlib.import_module(module)
            yield (getattr(owner, cls) if cls else owner), attr
        yield HostStream, "submit"
        yield importlib.import_module("repro.dist.coordinator"), "run_shard"

    before = [owner.__dict__[attr] for owner, attr in owners()]
    with pytest.raises(RuntimeError, match="inside"):
        with layers.LayerTracer().installed(shards=True):
            during = [owner.__dict__[attr] for owner, attr in owners()]
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("inside")
    after = [owner.__dict__[attr] for owner, attr in owners()]
    assert all(a is b for a, b in zip(before, after))


def test_forced_digest_mismatch_counts_as_a_failed_op():
    ops = [
        {"wall_s": 1.0, "digest": "aa", "rank1": [0, 1, 2, 3], "error": None},
        {"wall_s": 1.0, "digest": "bb", "rank1": [0, 1, 2, 3], "error": None},
        {"wall_s": None, "error": "ShardWorkerError: boom"},
    ]
    assert workloads.judge(ops, "aa", None) == 2
    assert ops[0]["failure"] is None
    assert ops[1]["failure"].startswith("top_k_sha256")
    assert ops[2]["failure"] == "ShardWorkerError: boom"
    planted = [{"wall_s": 1.0, "digest": "aa", "rank1": [0, 1, 2, 4], "error": None}]
    assert workloads.judge(planted, "aa", (0, 1, 2, 3)) == 1
    result = {"ops": ops, "n_snps": 8, "n_samples": 4, "peak_rss_mb": 1.0,
              "setup_samples_s": [0.5], "failed": 2, "attempted": 3}
    assert bench_e2e.end_to_end(result)["error_rate"]["median"] == pytest.approx(2 / 3)


def test_a_failed_workload_process_counts_as_a_failed_op(monkeypatch, tmp_path, capsys):
    def crash(args, env, timeout):
        raise RuntimeError("workloads.py run exited 1")

    monkeypatch.setattr(bench_e2e, "run_child", crash)
    out = tmp_path / "record.json"
    code = bench_e2e.main(["--workload", "null-m64", "--workload", "wide-n32k",
                           "--trace", "0", "--out", str(out)])
    assert code != 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"correct": False, "attempted": 2, "failed": 2, "metrics": {}}
    (record,) = json.loads(out.read_text())
    assert record["workloads"]["wide-n32k"]["error"] == "workloads.py run exited 1"


def test_unknown_config_knobs_are_dropped_and_logged(capsys):
    config, dropped = workloads.build_config({"block_size": 8, "retired_knob": 3})
    assert dropped == ["retired_knob"]
    assert config.block_size == 8
    assert "retired_knob" in capsys.readouterr().err


def _stats(median, spread=0.0):
    return {"unit": "s", "median": median, "min": median - spread, "max": median + spread, "n": 5}


def test_compare_verdicts():
    parent = [_stats(10.0 + 0.01 * i) for i in range(10)]
    assert compare.verdict(parent, [_stats(9.0)] * 10, "lower", 0.1) == "improved"
    assert compare.verdict(parent, [_stats(12.0)] * 10, "lower", 0.1) == "regressed"
    assert compare.verdict(parent, [_stats(10.5)] * 10, "lower", 0.1) == "no-worse"
    assert compare.verdict(parent, [_stats(10.5)] * 10, "higher", 0.1) == "improved"
    noisy = [_stats(10.0, spread=2.0)]
    assert compare.verdict(noisy, [_stats(10.2)], "lower", 0.1) == "unresolved"
    assert compare.verdict([_stats(0.0)], [_stats(0.1)], "lower", None) == "regressed"


def test_compare_flags_records_from_another_host():
    host = {"nproc": 2, "cpu_model": "x", "seed": 7, "git_commit": "a"}
    other = dict(host, nproc=4, seed=8, git_commit="b")
    assert compare.host_differences([{"host": host}, {"host": dict(host, seed=9)}]) == []
    assert compare.host_differences([{"host": host}, {"host": other}]) == ["nproc: 2 vs 4"]


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload", "null-m64",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_smoke_run_checks_outputs_and_fires_every_expected_wrapper(tmp_path):
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == 2 * len(workloads.WORKLOADS)
    (record,) = json.loads(out.read_text())
    for name, workload in workloads.WORKLOADS.items():
        result = record["workloads"][name]
        assert workload.layers <= set(result["fired"]), name
        assert set(result["fired"]) <= {layer for layer, *_ in layers.WRAPPED} | {
            layers.STAGE_LAYER
        }
        assert result["reference"] == ("unsharded" if workload.shards else "pinned")
