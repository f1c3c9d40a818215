"""End-to-end wall-clock benchmark of record, with per-layer attribution.

Run from the repository root::

    python benchmarks/e2e/bench_e2e.py [--workload NAME] [--seed S]
        [--repeats R | --seconds T] [--trace 0|1] [--smoke] [--out FILE]

For each workload it runs the workload in a fresh process
(``workloads.py``, which starts the set-up probes itself), prints every
metric by name with its unit, checks the outputs, appends one record to
``--out`` (default ``benchmarks/e2e/BENCH_e2e.json``) and exits non-zero
if any operation failed.  A workload whose process fails counts as one
failed operation.  Its last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Metric names and units come from ``BENCHMARK.json``; ``README.md`` next
to this file describes each one.

The program is imported from the ``src/`` directory of the checkout this
file sits in, never from an installed copy.  Journals, shard directories
and the processes' temporary files go to a scratch directory inside the
checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, shape  # noqa: E402

DEFAULT_OUT = HERE / "BENCH_e2e.json"
DEFAULT_REPEATS = 5
#: Each workload's processes must end within this many seconds.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCHEMA = "bench_e2e/1"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_fingerprint(seed: int) -> dict:
    """What a run's numbers depend on besides the code and the seed."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def child_env(workload, scratch: str) -> tuple[dict, int]:
    """Environment of a workload's processes: the checkout's ``src`` first
    on the path, temporary files under ``scratch``, and the BLAS pool
    capped so the workload's concurrent threads times BLAS threads never
    exceeds the cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = scratch
    blas_threads = max(1, nproc() // workload.threads)
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads)
    return env, blas_threads


def run_child(args: list[str], env: dict, timeout: float) -> dict:
    """Run ``workloads.py`` in a fresh process group and parse the JSON
    object on its last stdout line.  On timeout the whole group (shard
    workers included) is killed before this returns."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workloads.py {' '.join(args)} timed out") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"workloads.py {' '.join(args)} exited {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"workloads.py {' '.join(args)} printed no result") from None


def stats(values: list[float], unit: str) -> dict:
    return {
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics of one workload, as median/min/max/n."""
    walls = [op["wall_s"] for op in result["ops"]
             if op["wall_s"] is not None and not op.get("traced")]
    n_snps, n_samples = result["n_snps"], result["n_samples"]
    volume = math.comb(n_snps, 4) * n_samples
    out = {}
    if walls:
        out["wall_s"] = stats(walls, "s")
        out["quads_scaled_per_s"] = stats([volume / w for w in walls], "1/s")
    out["peak_rss_mb"] = stats([result["peak_rss_mb"]], "MB")
    out["setup_s"] = stats(result["setup_samples_s"], "s")
    out["error_rate"] = stats([result["failed"] / result["attempted"]], "ratio")
    return out


def run_workload(name: str, args, scratch: str) -> dict:
    """One workload's result; a workload process that fails or times out
    yields one failed operation and no metrics but ``error_rate``."""
    workload = WORKLOADS[name]
    env, blas_threads = child_env(workload, scratch)
    budget = ["--seconds", str(args.seconds)] if args.seconds else ["--repeats", str(args.repeats)]
    try:
        result = run_child(
            ["run", "--workload", name, "--seed", str(args.seed), *budget,
             "--trace", str(args.trace), "--scratch", scratch]
            + (["--smoke"] if args.smoke else []),
            env,
            DEADLINE_S,
        )
    except RuntimeError as exc:
        return {
            "workload": name,
            "seed": args.seed,
            "error": str(exc),
            "attempted": 1,
            "failed": 1,
            "correct": False,
            "end_to_end": {"error_rate": stats([1.0], "ratio")},
            "per_layer": {},
        }
    missing = workload.layers - set(result["fired"]) if args.trace else set()
    if missing:
        result["checks"].append(f"wrappers never fired: {sorted(missing)}")
    result["blas_threads"] = blas_threads
    result["end_to_end"] = end_to_end(result)
    result["correct"] = result["failed"] == 0 and not result["checks"]
    return result


def report(result: dict, names: dict) -> None:
    """Print every metric by name with its unit."""
    name = result["workload"]
    if result.get("error"):
        print(f"\n== {name}  seed={result['seed']}\n   FAILED workload: {result['error']}")
        return
    print(f"\n== {name}  M={result['n_snps']} N={result['n_samples']} seed={result['seed']} "
          f"blas_threads={result['blas_threads']} reference={result['reference']}")
    if result["dropped_knobs"]:
        print(f"   dropped knobs: {', '.join(result['dropped_knobs'])}")
    # A run has too few samples for any percentile above the median to
    # have ten samples beyond it, so none is reported.
    for metric, s in result["end_to_end"].items():
        print(f"   {metric:<22} {s['median']:>14.6g} {s['unit']:<6} "
              f"(median of {s['n']}; min {s['min']:.6g} max {s['max']:.6g})")
    for metric, value in result["per_layer"].items():
        print(f"   {metric:<28} {value:>14.6g} {names[metric]}")
    print(f"   correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for op in result["ops"]:
        if op.get("failure"):
            print(f"   FAILED op: {op['failure']}")
    for check in result["checks"]:
        print(f"   FAILED check: {check}")


def append_record(path: Path, record: dict) -> None:
    history = json.loads(path.read_text()) if path.exists() else []
    history.append(record)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1) + "\n")
    os.replace(tmp, path)


def final_line(results: list[dict], trace: bool, bench: dict) -> dict:
    """The one-line summary: per-layer metrics with ``trace``, else the
    end-to-end metrics named in ``BENCHMARK.json``.  With several
    workloads each name is prefixed ``<workload>/``."""
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        if trace:
            for entry in bench["per_layer"]:
                value = result["per_layer"].get(entry["name"])
                if value is not None:
                    metrics[prefix + entry["name"]] = {"value": value, "unit": entry["unit"]}
        else:
            for entry in bench["end_to_end"]:
                s = result["end_to_end"].get(entry["name"])
                if s is not None:
                    metrics[prefix + entry["name"]] = {"value": s["median"], "unit": entry["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, help=f"timed repeats (default {DEFAULT_REPEATS})")
    parser.add_argument("--seconds", type=float,
                        help="time the repeats for this long instead (at least 3 repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="add the traced run and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload at M,N = {shape(WORKLOADS['null-m64'], True)}, "
                             "1 repeat plus the traced run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="history file the record is appended to")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.repeats is not None and args.seconds is not None:
        parser.error("give --repeats or --seconds, not both")
    if args.repeats is not None and args.repeats < 1 or args.seconds is not None and args.seconds <= 0:
        parser.error("--repeats and --seconds must be positive")
    if args.smoke and args.seconds is None:
        args.repeats = 1
    elif args.repeats is None and args.seconds is None:
        args.repeats = DEFAULT_REPEATS
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "search.py").is_file():
        print(f"bench_e2e: no program source under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {entry["name"]: entry["unit"] for entry in bench["per_layer"]}
    # The benchmark writes only inside its checkout, so scratch lives here
    # (and is listed in the repository's .gitignore).
    scratch = tempfile.mkdtemp(prefix=".bench_e2e-", dir=ROOT)
    try:
        results = []
        for name in args.workload or list(WORKLOADS):
            results.append(run_workload(name, args, scratch))
            report(results[-1], names)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    append_record(
        args.out,
        {
            "schema": SCHEMA,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "host": host_fingerprint(args.seed),
            "args": {"seed": args.seed, "smoke": args.smoke, "repeats": args.repeats,
                     "seconds": args.seconds, "trace": args.trace},
            "workloads": {r["workload"]: r for r in results},
        },
    )
    summary = final_line(results, bool(args.trace), bench)
    print(json.dumps(summary))
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
