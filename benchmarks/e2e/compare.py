"""Compare a parent and a change by their ``bench_e2e`` records.

    python benchmarks/e2e/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are ``BENCH_e2e.json`` files, each optionally
suffixed ``@SELECT``: a record index (``@-1``, the default, is the last
record) or a slice (``@-10:`` is the last ten).  Records are paired in
order, so with ten or more per side record ``i`` of the parent should have
run next to record ``i`` of the change, alternating which went first.

One row per (end-to-end metric, workload) reads:

- ``improved``: at least ten pairs, the change wins at least 9/10 of them
  (ties count for neither) and the medians differ by more than the
  parent's spread (its quartile distance; with one record, its min-max);
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json`` (``error_rate``: by any
  amount);
- ``unresolved``: the parent's own spread exceeds the bound, and not every
  change value beats every parent value;
- ``no-worse``: otherwise.

Records whose host fingerprints differ (ignoring seed and commit) are
flagged.  Exits 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Fingerprint fields that may differ between comparable records.
VOLATILE_HOST_FIELDS = ("seed", "git_commit")


def load(spec: str) -> list[dict]:
    """Records of ``FILE[@SELECT]``."""
    path, _, select = spec.partition("@")
    records = json.loads(Path(path).read_text())
    select = select or "-1"
    if ":" in select:
        start, stop = (int(part) if part else None for part in select.split(":", 1))
        chosen = records[start:stop]
    else:
        chosen = [records[int(select)]]
    if not chosen:
        raise SystemExit(f"compare: {spec} selects no record")
    return chosen


def spread(stats_list: list[dict]) -> float:
    """Absolute spread of one side: quartile distance of the per-record
    medians, or the min-max range of a single record's samples."""
    if len(stats_list) == 1:
        return stats_list[0]["max"] - stats_list[0]["min"]
    q1, _, q3 = statistics.quantiles([s["median"] for s in stats_list], n=4)
    return q3 - q1


def verdict(parent: list[dict], change: list[dict], better: str, bound: float | None) -> str:
    """Verdict for one (metric, workload); ``bound=None`` means any
    worsening regresses (``error_rate``)."""
    sign = 1.0 if better == "lower" else -1.0
    p = [s["median"] for s in parent]
    c = [s["median"] for s in change]
    pm, cm = statistics.median(p), statistics.median(c)
    gain = sign * (pm - cm)
    pairs = list(zip(p, c))
    wins = sum(sign * (pc - cc) > 0 for pc, cc in pairs)
    parent_spread = spread(parent)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > parent_spread:
        return "improved"
    if bound is None:
        return "regressed" if gain < 0 else "no-worse"
    if -gain > bound * abs(pm):
        return "regressed"
    every_better = all(sign * (pv - cv) > 0 for pv in p for cv in c)
    if parent_spread > bound * abs(pm) and not every_better:
        return "unresolved"
    return "no-worse"


def host_differences(records: list[dict]) -> list[str]:
    first = records[0]["host"]
    out = []
    for record in records[1:]:
        for key, value in record["host"].items():
            if key not in VOLATILE_HOST_FIELDS and first.get(key) != value:
                out.append(f"{key}: {first.get(key)!r} vs {value!r}")
    return sorted(set(out))


def compare(parent: list[dict], change: list[dict], bench: dict) -> list[dict]:
    """One row per (end-to-end metric, workload) present on both sides."""
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics.append(("error_rate", "lower", None))
    workloads = [w["name"] for w in bench["workloads"]]
    rows = []
    for name, better, bound in metrics:
        for workload in workloads:
            sides = []
            for records in (parent, change):
                sides.append([
                    r["workloads"][workload]["end_to_end"][name]
                    for r in records
                    if name in r["workloads"].get(workload, {}).get("end_to_end", {})
                ])
            if not all(sides):
                continue
            p, c = sides
            pm = statistics.median(s["median"] for s in p)
            cm = statistics.median(s["median"] for s in c)
            rows.append({
                "metric": name,
                "workload": workload,
                "unit": p[0]["unit"],
                "parent": pm,
                "change": cm,
                "delta": (cm - pm) / abs(pm) if pm else 0.0,
                "n": min(len(p), len(c)),
                "verdict": verdict(p, c, better, bound),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="BENCH_e2e.json[@INDEX|@SLICE] of the parent")
    parser.add_argument("change", help="BENCH_e2e.json[@INDEX|@SLICE] of the change")
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    bench = json.loads(args.bench.read_text())
    differences = host_differences(parent + change)
    if differences:
        print("WARNING: records come from different hosts: " + "; ".join(differences))
    print(f"parent: {len(parent)} record(s), seeds {[r['args']['seed'] for r in parent]}")
    print(f"change: {len(change)} record(s), seeds {[r['args']['seed'] for r in change]}")
    rows = compare(parent, change, bench)
    print(f"{'metric':<20} {'workload':<16} {'parent':>12} {'change':>12} {'delta':>8}  n  verdict")
    for row in rows:
        print(f"{row['metric']:<20} {row['workload']:<16} {row['parent']:>12.6g} "
              f"{row['change']:>12.6g} {100 * row['delta']:>7.2f}% {row['n']:>2}  {row['verdict']}"
              + ("  (other host)" if differences else ""))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
