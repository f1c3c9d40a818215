"""Test-only references shared across the search suites.

- :func:`brute_force_topk` — an independent top-k oracle: per-quad
  contingency tables counted straight from the genotypes and scored with
  :class:`~repro.scoring.k2.K2Score`.  No bit-planes, tensor GEMMs,
  completion, operand cache or pruning sit between the dataset and the
  ranking, so agreement with the search checks every one of those layers.
- :func:`cut_journal` — the on-disk state of a run killed right after a
  given number of durable journal commits.
- :func:`round_work` — a normalized metrics snapshot without the series
  every device is charged once at setup, so runs on different device
  counts compare equal.
- :func:`fail_tensor4` / :func:`resume_after_failure` — a device whose
  ``n``-th 4-way launch fails mid-search, and the journal resume that
  recovers the run.
- :func:`run_bounded` — run a search on a daemon thread with a time
  limit, so a device loop that never returns fails the test instead of
  hanging the suite.
"""

from __future__ import annotations

import threading
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from repro.contingency import contingency_tables_by_class
from repro.core.journal import _read_frame
from repro.core.solution import Solution
from repro.datasets import Dataset
from repro.device.virtual_gpu import VirtualGPU
from repro.dist.merge import MergedRun
from repro.scoring.k2 import K2Score
from repro.scoring.lgamma_table import LgammaTable


def brute_force_topk(dataset: Dataset, k: int) -> list[Solution]:
    """The ``k`` best quads of ``dataset`` under K2, ranked like the
    search's reducer (score, then packed quad index)."""
    quads = list(combinations(range(dataset.n_snps), 4))
    tables = [contingency_tables_by_class(dataset, quad) for quad in quads]
    controls = np.stack([t0 for t0, _ in tables])
    cases = np.stack([t1 for _, t1 in tables])
    score = K2Score(LgammaTable.for_samples(dataset.n_samples))
    scores = score(controls, cases, order=4)
    ranked = sorted(
        Solution.from_quad(quad, float(s)) for quad, s in zip(quads, scores)
    )
    return ranked[:k]


def assert_matches_oracle(result, expected: list[Solution]) -> None:
    """Exact quads, scores to ``rel=1e-9`` (the oracle sums each table's
    lgamma terms in its own order).  ``result`` is a search result or a
    merged sharded run."""
    got = (
        result.solutions
        if isinstance(result, MergedRun)
        else result.top_solutions
    )
    assert [s.quad for s in got] == [s.quad for s in expected]
    assert [s.score for s in got] == pytest.approx(
        [s.score for s in expected], rel=1e-9
    )


#: Counters charged once per device at setup (dataset transfer and
#: pairwPop): they scale with ``n_gpus``.
SETUP_SERIES = (
    "epi4_transfer_bytes_total",
    "epi4_pairwise_ops_total",
)


def round_work(snapshot: dict) -> dict:
    """A :func:`~repro.obs.metrics.normalized_snapshot` minus the
    per-device setup series (see :data:`SETUP_SERIES`)."""
    counters = {
        name: series
        for name, series in snapshot["counters"].items()
        if name not in SETUP_SERIES
    }
    counters["epi4_kernel_launches_total"] = {
        label: value
        for label, value in counters["epi4_kernel_launches_total"].items()
        if "pairwPop" not in label and "transfer" not in label
    }
    return {**snapshot, "counters": counters}


def cut_journal(path: str | Path, n_commits: int) -> list[int]:
    """Truncate a journal to its header plus its first ``n_commits``
    commit frames, at a frame boundary.  Returns the kept iterations."""
    path = Path(path)
    data = path.read_bytes()
    _header, offset = _read_frame(data, 0)
    kept = []
    for _ in range(n_commits):
        record, offset = _read_frame(data, offset)
        kept.append(record["wi"])
    path.write_bytes(data[:offset])
    return kept


class LaunchFailure(RuntimeError):
    """Raised by the 4-way launch that :func:`fail_tensor4` makes fail."""


def fail_tensor4(monkeypatch, at: int) -> None:
    """Make the ``at``-th (1-based) 4-way launch fail with
    :class:`LaunchFailure`, counted over every device and over single and
    fused launches alike.  Undone when ``monkeypatch`` is."""
    lock = threading.Lock()
    calls = [0]
    for name in ("launch_tensor4", "launch_tensor4_batch"):
        launch = getattr(VirtualGPU, name)

        def failing(self, *args, _launch=launch, **kwargs):
            with lock:
                calls[0] += 1
                n = calls[0]
            if n == at:
                raise LaunchFailure(f"4-way launch {n} failed")
            return _launch(self, *args, **kwargs)

        monkeypatch.setattr(VirtualGPU, name, failing)


def resume_after_failure(monkeypatch, make_search, journal_path, at: int):
    """Run ``make_search()`` with its ``at``-th 4-way launch failing — the
    run aborts after committing the iterations it finished — then resume a
    fresh ``make_search()`` from the journal on healthy devices.  Returns
    the resumed result."""
    with monkeypatch.context() as patch:
        fail_tensor4(patch, at)
        with pytest.raises(LaunchFailure):
            make_search().run(journal_path=journal_path)
    return make_search().run(journal_path=journal_path)


def run_bounded(search, timeout: float = 60.0):
    """Run ``search`` on a daemon thread and return ``(result, error)``,
    one of them ``None``; fail if it is still running after ``timeout``
    seconds instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["result"] = search.run()
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "search neither finished nor raised"
    return outcome.get("result"), outcome.get("error")
