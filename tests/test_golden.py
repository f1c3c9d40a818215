"""Golden-artifact regression tests: the observability lock on correctness.

A fixed tiny search (16 SNPs x 96 samples, seed 42, B=8, one device,
cache off) is traced and its artifacts compared byte-for-byte against
checked-in fixtures under ``tests/golden/``:

- ``trace_seq_b8.jsonl``     — normalized JSONL trace (span tree + tags;
  timestamps/durations/ids zeroed by :func:`normalize_records`);
- ``metrics_seq_b8.json``    — normalized metrics snapshot (time-valued
  series zeroed, device labels summed);
- ``manifest_seq_b8.json``   — the run manifest with the (environment-
  dependent) ``versions`` section pinned.

Any change to the loop nest, the kernel accounting, the cache policy or
the exporters that alters observable behaviour shows up as a fixture
diff.  To regenerate after an *intentional* change:

    EPI4TENSOR_REGEN_GOLDEN=1 python -m pytest tests/test_golden.py

and review the diff like any other code change.

The cross-cutting invariants (AND+POPC vs XOR+POPC engines, one device
on the calling thread vs two device threads) are asserted directly: same
span-tree shape (modulo the racy ``wi -> device`` assignment), same
normalized round-work metrics, same top-k digest — and that digest's
top-k equals the independent brute-force oracle's.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_random_dataset
from repro.obs.manifest import build_run_manifest
from repro.obs.metrics import normalized_snapshot
from repro.obs.trace import Tracer, span_tree_shape, trace_lines
from tests.helpers import assert_matches_oracle, brute_force_topk, round_work

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("EPI4TENSOR_REGEN_GOLDEN") == "1"

#: The pinned workload every golden fixture derives from.
SEED, N_SNPS, N_SAMPLES, BLOCK = 42, 16, 96, 8


def _dataset():
    return generate_random_dataset(N_SNPS, N_SAMPLES, seed=SEED)


def _search(**overrides):
    cfg = dict(
        block_size=BLOCK,
        engine_kind="and_popc",
        top_k=3,
        # Golden fixtures pin the unpruned path: prune counts depend on
        # threshold timing, which is schedule-sensitive by design.
        prune=False,
    )
    cfg.update(overrides)
    n_gpus = cfg.pop("n_gpus", 1)
    tracer = Tracer()
    search = Epi4TensorSearch(
        _dataset(), SearchConfig(**cfg), n_gpus=n_gpus, tracer=tracer
    )
    result = search.run()
    return search, result, tracer


def _check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden fixture {path} missing — run "
        "EPI4TENSOR_REGEN_GOLDEN=1 python -m pytest tests/test_golden.py"
    )
    expected = path.read_text(encoding="utf-8")
    assert text == expected, (
        f"{name} drifted from its golden fixture; if the change is "
        "intentional regenerate with EPI4TENSOR_REGEN_GOLDEN=1"
    )


def _strip_device(path: str) -> str:
    """Remove the racy ``device[d]#k`` component from a span path."""
    return re.sub(r"device\[\d+\]#\d+", "device[*]", path)


class TestGoldenFixtures:
    def test_trace_matches_fixture(self):
        _, _, tracer = _search()
        lines = trace_lines(tracer.records(), normalized=True)
        _check_golden("trace_seq_b8.jsonl", "\n".join(lines) + "\n")

    def test_metrics_match_fixture(self):
        search, _, _ = _search()
        text = json.dumps(
            normalized_snapshot(search.metrics), indent=1, sort_keys=True
        ) + "\n"
        _check_golden("metrics_seq_b8.json", text)

    def test_manifest_matches_fixture(self):
        search, result, _ = _search()
        manifest = build_run_manifest(search, result, dataset=_dataset())
        data = dict(manifest.data)
        # The versions section is environment-dependent by design; pin it
        # so the fixture compares the reproducible remainder.
        data["versions"] = {k: "pinned" for k in data["versions"]}
        text = json.dumps(
            data, sort_keys=True, separators=(",", ": "), indent=1
        ) + "\n"
        _check_golden("manifest_seq_b8.json", text)

    def test_trace_repeatable_within_session(self):
        _, _, t1 = _search()
        _, _, t2 = _search()
        assert trace_lines(t1.records(), normalized=True) == trace_lines(
            t2.records(), normalized=True
        )


class TestCrossEngineStability:
    """AND+POPC and XOR+POPC must be observationally interchangeable."""

    def test_span_tree_shape_identical(self):
        shapes = []
        for kind in ("and_popc", "xor_popc"):
            _, _, tracer = _search(engine_kind=kind)
            shapes.append(span_tree_shape(tracer.records()))
        assert shapes[0] == shapes[1]

    def test_normalized_metrics_identical(self):
        snaps = []
        for kind in ("and_popc", "xor_popc"):
            search, _, _ = _search(engine_kind=kind)
            snaps.append(normalized_snapshot(search.metrics))
        assert snaps[0] == snaps[1]

    def test_topk_digest_identical(self):
        digests = set()
        for kind in ("and_popc", "xor_popc"):
            search, result, _ = _search(engine_kind=kind)
            m = build_run_manifest(search, result)
            digests.add(m["results"]["top_k_sha256"])
        assert len(digests) == 1


class TestSequentialThreadedStability:
    """A 1-device run (the calling thread only) and a 2-device run (one
    host thread per device) must be observationally equivalent, modulo
    which device ran which iteration and the per-device setup work."""

    def test_device_stripped_span_shape_identical(self):
        # Cache off: every operand request computes, so the span tree is a
        # pure function of the iteration space.  (With the cache on, the
        # *spans* move to whichever thread wins the single-flight miss —
        # only the metric totals are order-invariant, asserted below.)
        shapes = []
        for n_gpus in (1, 2):
            _, _, tracer = _search(n_gpus=n_gpus)
            shapes.append(
                sorted(
                    stripped
                    for p in span_tree_shape(tracer.records())
                    if (stripped := _strip_device(p)) != "run#0/device[*]"
                )
            )
        assert shapes[0] == shapes[1]

    def test_normalized_metrics_identical(self):
        snaps = []
        for n_gpus in (1, 2):
            search, _, _ = _search(n_gpus=n_gpus, cache_mb=2)
            snaps.append(round_work(normalized_snapshot(search.metrics)))
        assert snaps[0] == snaps[1]

    def test_topk_digest_identical(self):
        digests = set()
        expected = brute_force_topk(_dataset(), 3)
        for n_gpus in (1, 2):
            search, result, _ = _search(n_gpus=n_gpus, cache_mb=2)
            assert_matches_oracle(result, expected)
            digests.add(
                build_run_manifest(search, result)["results"]["top_k_sha256"]
            )
        assert len(digests) == 1
