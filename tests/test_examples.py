"""Smoke-run the example scripts (the fast ones) as subprocesses.

Examples are part of the public deliverable; this keeps them from rotting.
The long-running studies (power_study, multi_gpu_scaling) are exercised
piecewise by other tests and run standalone.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

FAST_EXAMPLES = [
    "quickstart.py",
    "architecture_comparison.py",
    "performance_reproduction.py",
    "plink_workflow.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script, tmp_path):
    path = os.path.join(EXAMPLES_DIR, script)
    # Examples that keep their files (plink_workflow) write them here.
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, TMPDIR=str(tmp_path)),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_quickstart_reports_best_quad():
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "best quad" in proc.stdout
    assert "tensor ops" in proc.stdout


def test_performance_reproduction_prints_anchor_matches():
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(EXAMPLES_DIR, "performance_reproduction.py"),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout
    # The exact-reproduction section must show equality on every row.
    ratio_lines = [l for l in out.splitlines() if "% ==" in l or "% !=" in l]
    assert ratio_lines, "ratio section missing"
    assert all("==" in l for l in ratio_lines), "a ratio row diverged"
