"""Per-rule positive/negative fixtures for the epi4lint analyzer.

Every rule family gets at least one fixture that trips it and one that
stays clean, plus suppression-mechanics and reporter round-trip tests.
Fixtures are written into synthetic ``<tmp>/repro/...`` trees so the
module-name resolution (and therefore the deterministic/durability
module registries) behaves exactly as on the real ``src/repro`` tree.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import analyze_paths
from repro.analysis.model import AnalysisResult, Finding
from repro.analysis.registry import (
    FAMILY_EXIT_BITS,
    all_rules,
    exit_code_for,
    rules_by_id,
)
from repro.analysis.reporters import render_json, render_text


def write_tree(root, files: dict[str, str]):
    """Write ``{relpath: source}`` under ``root``; returns root."""
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return root


def run(root, select=None, repo_root=None) -> AnalysisResult:
    return analyze_paths([str(root)], select=select, repo_root=repo_root)


def rules_of(result: AnalysisResult) -> list[str]:
    return [f.rule for f in result.findings]


# --------------------------------------------------------------------- #
# Registry


class TestRegistry:
    def test_all_rules_unique_ids(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)
        assert {r.family for r in rules} == {
            "determinism", "concurrency", "durability", "coherence",
        }

    def test_rules_by_id_selects(self):
        assert [r.id for r in rules_by_id(["EPI401"])] == ["EPI401"]

    def test_rules_by_id_unknown_raises(self):
        with pytest.raises(ValueError, match="EPI999"):
            rules_by_id(["EPI999"])

    def test_exit_code_bits(self):
        def f(rule, family):
            return Finding(rule=rule, family=family, path="x", line=1,
                           col=0, message="m")
        assert exit_code_for([]) == 0
        assert exit_code_for([f("EPI401", "determinism")]) == 1
        assert exit_code_for([f("EPI411", "concurrency")]) == 2
        assert exit_code_for(
            [f("EPI401", "determinism"), f("EPI421", "durability")]
        ) == 5
        assert FAMILY_EXIT_BITS["meta"] == 16


# --------------------------------------------------------------------- #
# Determinism (EPI401-EPI403)


class TestBannedCalls:
    def test_wallclock_in_deterministic_module(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dist/merge.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        result = run(root, select=["EPI401"])
        assert rules_of(result) == ["EPI401"]
        assert "time.time()" in result.findings[0].message

    def test_unseeded_rng_flagged_seeded_ok(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/journal.py": """
                import random

                def bad():
                    return random.Random()

                def good():
                    return random.Random(7)
            """,
        })
        result = run(root, select=["EPI401"])
        assert rules_of(result) == ["EPI401"]
        assert "unseeded" in result.findings[0].message

    def test_import_alias_resolved(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/scoring/bounds.py": """
                import time as clock

                def stamp():
                    return clock.time()
            """,
        })
        assert rules_of(run(root, select=["EPI401"])) == ["EPI401"]

    def test_clean_module_not_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/bench/harness.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert rules_of(run(root, select=["EPI401"])) == []

    def test_deterministic_tag_extends_scope(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/bench/harness.py": """
                import time

                def stamp():  # epi4lint: deterministic
                    return time.time()
            """,
        })
        assert rules_of(run(root, select=["EPI401"])) == ["EPI401"]


class TestWallClock:
    def test_wallclock_outside_timer(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/bench/harness.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert rules_of(run(root, select=["EPI402"])) == ["EPI402"]

    def test_sanctioned_module_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/utils/timing.py": """
                import time

                def now():
                    return time.time()
            """,
        })
        assert rules_of(run(root, select=["EPI402"])) == []

    def test_monotonic_clock_allowed(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/bench/harness.py": """
                import time

                def tick():
                    return time.monotonic()
            """,
        })
        assert rules_of(run(root, select=["EPI402"])) == []


class TestUnorderedIteration:
    def test_for_over_set_literal(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dist/plan.py": """
                def walk(a, b):
                    out = []
                    for item in {a, b}:
                        out.append(item)
                    return out
            """,
        })
        assert rules_of(run(root, select=["EPI403"])) == ["EPI403"]

    def test_sorted_wrapper_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dist/plan.py": """
                def walk(a, b):
                    out = []
                    for item in sorted({a, b}):
                        out.append(item)
                    return out
            """,
        })
        assert rules_of(run(root, select=["EPI403"])) == []

    def test_len_and_membership_are_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dist/plan.py": """
                def count(items):
                    return len(set(items))
            """,
        })
        assert rules_of(run(root, select=["EPI403"])) == []

    def test_list_of_set_call_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dist/plan.py": """
                def walk(items):
                    return list(set(items))
            """,
        })
        assert rules_of(run(root, select=["EPI403"])) == ["EPI403"]

    def test_nondeterministic_module_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/bench/harness.py": """
                def walk(items):
                    return list(set(items))
            """,
        })
        assert rules_of(run(root, select=["EPI403"])) == []


# --------------------------------------------------------------------- #
# Concurrency (EPI411-EPI413)

GUARDED_CLASS = """
    import threading

    class Buffer:
        _GUARDED_BY = {"_items": "_lock"}

        def __init__(self):
            self._lock = threading.Lock()
            self._items = []
"""


class TestGuardedBy:
    def test_access_outside_lock(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/buffer.py": GUARDED_CLASS + """
        def size(self):
            return len(self._items)
            """,
        })
        result = run(root, select=["EPI411"])
        assert rules_of(result) == ["EPI411"]
        assert "Buffer._items" in result.findings[0].message

    def test_access_under_lock_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/buffer.py": GUARDED_CLASS + """
        def size(self):
            with self._lock:
                return len(self._items)
            """,
        })
        assert rules_of(run(root, select=["EPI411"])) == []

    def test_locked_suffix_method_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/buffer.py": GUARDED_CLASS + """
        def _size_locked(self):
            return len(self._items)
            """,
        })
        assert rules_of(run(root, select=["EPI411"])) == []

    def test_lock_held_tag_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/buffer.py": GUARDED_CLASS + """
        def size(self):  # epi4lint: lock-held every caller holds _lock
            return len(self._items)
            """,
        })
        assert rules_of(run(root, select=["EPI411"])) == []

    def test_nested_function_does_not_inherit_lock(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/buffer.py": GUARDED_CLASS + """
        def schedule(self, pool):
            with self._lock:
                def job():
                    return len(self._items)
                pool.submit(job)
            """,
        })
        assert rules_of(run(root, select=["EPI411"])) == ["EPI411"]


class TestLockOrder:
    def test_opposite_order_cycle(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/pair.py": """
                import threading

                class Pair:
                    _GUARDED_BY = {"_x": "_a", "_y": "_b"}

                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()
                        self._x = 0
                        self._y = 0

                    def forward(self):
                        with self._a:
                            with self._b:
                                return self._x + self._y

                    def backward(self):
                        with self._b:
                            with self._a:
                                return self._y + self._x
            """,
        })
        result = run(root, select=["EPI412"])
        assert rules_of(result) == ["EPI412"]
        assert "cycle" in result.findings[0].message

    def test_consistent_order_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/pair.py": """
                import threading

                class Pair:
                    _GUARDED_BY = {"_x": "_a", "_y": "_b"}

                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()
                        self._x = 0
                        self._y = 0

                    def forward(self):
                        with self._a:
                            with self._b:
                                return self._x + self._y

                    def also_forward(self):
                        with self._a:
                            with self._b:
                                return self._y
            """,
        })
        assert rules_of(run(root, select=["EPI412"])) == []

    def test_nonreentrant_self_nesting_deadlock(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/buffer.py": GUARDED_CLASS + """
        def deadlock(self):
            with self._lock:
                with self._lock:
                    return self._items
            """,
        })
        result = run(root, select=["EPI412"])
        assert rules_of(result) == ["EPI412"]
        assert "not reentrant" in result.findings[0].message

    def test_rlock_self_nesting_allowed(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/buffer.py": """
                import threading

                class Buffer:
                    _GUARDED_BY = {"_items": "_lock"}

                    def __init__(self):
                        self._lock = threading.RLock()
                        self._items = []

                    def fine(self):
                        with self._lock:
                            with self._lock:
                                return self._items
            """,
        })
        assert rules_of(run(root, select=["EPI412"])) == []

    def test_self_call_acquiring_same_lock(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/buffer.py": GUARDED_CLASS + """
        def inner(self):
            with self._lock:
                return list(self._items)

        def outer(self):
            with self._lock:
                return self.inner()
            """,
        })
        result = run(root, select=["EPI412"])
        assert rules_of(result) == ["EPI412"]
        assert "self.inner()" in result.findings[0].message


class TestForeignAccess:
    def test_reaching_into_foreign_instance(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/buffer.py": GUARDED_CLASS,
            "repro/core/user.py": """
                def steal(buf):
                    return buf._items
            """,
        })
        result = run(root, select=["EPI413"])
        assert rules_of(result) == ["EPI413"]
        assert "Buffer" in result.findings[0].message

    def test_same_class_access_allowed(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/buffer.py": GUARDED_CLASS + """
        def merge(self, other):
            with self._lock:
                return other._items
            """,
        })
        # other._items inside Buffer itself is the classic merge pattern;
        # EPI413 only fires outside the owning class.
        assert rules_of(run(root, select=["EPI413"])) == []


# --------------------------------------------------------------------- #
# Durability (EPI421-EPI423)


class TestDurability:
    def test_rename_without_fsync(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/journal.py": """
                import os

                def publish(tmp, final):
                    os.replace(tmp, final)
            """,
        })
        result = run(root, select=["EPI421", "EPI422"])
        assert rules_of(result) == ["EPI421", "EPI422"]

    def test_full_discipline_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/journal.py": """
                import os

                def fsync_directory(path):
                    fd = os.open(path, os.O_RDONLY)
                    try:
                        os.fsync(fd)
                    finally:
                        os.close(fd)

                def publish(tmp, final):
                    with open(tmp, "r+b") as fh:
                        os.fsync(fh.fileno())
                    os.replace(tmp, final)
                    fsync_directory(os.path.dirname(final))
            """,
        })
        assert rules_of(run(root, select=["EPI421", "EPI422"])) == []

    def test_bare_artifact_write_in_durability_module(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/journal.py": """
                def dump(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)
            """,
        })
        result = run(root, select=["EPI423"])
        assert rules_of(result) == ["EPI423"]

    def test_write_with_fsync_not_bare(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/journal.py": """
                import os

                def dump(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)
                        fh.flush()
                        os.fsync(fh.fileno())
            """,
        })
        assert rules_of(run(root, select=["EPI423"])) == []

    def test_read_open_ignored(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/journal.py": """
                def load(path):
                    with open(path) as fh:
                        return fh.read()
            """,
        })
        assert rules_of(run(root, select=["EPI423"])) == []

    def test_non_durability_module_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/bench/report.py": """
                def dump(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)
            """,
        })
        assert rules_of(run(root, select=["EPI423"])) == []


# --------------------------------------------------------------------- #
# Coherence (EPI431-EPI434)


def coherence_tree(tmp_path, *, doc_rows="", cli_extra="", readme_extra="",
                   emit_extra=""):
    """A miniature repo (pyproject + docs + README + src) for the
    coherence rules."""
    return write_tree(tmp_path, {
        "pyproject.toml": "[project]\nname = 'fixture'\n",
        "docs/observability.md": f"""
            | name | type | labels |
            |---|---|---|
            | `epi4_rounds_total` | counter | `device` |
            {doc_rows}
        """,
        "README.md": f"""
            Flags: `--block-size` `--top-k` {readme_extra}
        """,
        "src/repro/core/search.py": """
            class SearchConfig:
                block_size: int = 16
                top_k: int = 1
        """,
        "src/repro/cli.py": f"""
            def build(p):
                p.add_argument("--block-size", type=int)
                p.add_argument("--top-k", type=int)
                {cli_extra}
        """,
        "src/repro/core/metricsrc.py": f"""
            def record(registry):
                registry.inc("epi4_rounds_total", 1.0)
                {emit_extra}
        """,
    })


class TestCoherence:
    def test_clean_miniature_repo(self, tmp_path):
        root = coherence_tree(tmp_path)
        result = analyze_paths(
            [str(root / "src")],
            select=["EPI431", "EPI432", "EPI433", "EPI434"],
            repo_root=str(root),
        )
        assert rules_of(result) == []

    def test_undocumented_metric(self, tmp_path):
        root = coherence_tree(
            tmp_path, emit_extra='registry.inc("epi4_mystery_total", 1.0)'
        )
        result = analyze_paths(
            [str(root / "src")], select=["EPI431"], repo_root=str(root)
        )
        assert rules_of(result) == ["EPI431"]
        assert "epi4_mystery_total" in result.findings[0].message

    def test_wildcard_prefix_covers_family(self, tmp_path):
        root = coherence_tree(
            tmp_path,
            doc_rows="| `epi4_resilience_*_total` | counter | `device` |",
            emit_extra='registry.inc("epi4_resilience_retries_total", 1.0)',
        )
        result = analyze_paths(
            [str(root / "src")], select=["EPI431"], repo_root=str(root)
        )
        assert rules_of(result) == []

    def test_stale_documented_metric(self, tmp_path):
        root = coherence_tree(
            tmp_path, doc_rows="| `epi4_ghost_total` | counter | — |"
        )
        result = analyze_paths(
            [str(root / "src")], select=["EPI432"], repo_root=str(root)
        )
        assert rules_of(result) == ["EPI432"]
        assert result.findings[0].path.endswith("observability.md")

    def test_config_field_without_flag(self, tmp_path):
        root = coherence_tree(tmp_path)
        search = root / "src/repro/core/search.py"
        search.write_text(
            search.read_text() + "    new_knob: int = 0\n", encoding="utf-8"
        )
        result = analyze_paths(
            [str(root / "src")], select=["EPI433"], repo_root=str(root)
        )
        assert rules_of(result) == ["EPI433"]
        assert "--new-knob" in result.findings[0].message

    def test_flag_without_readme_row(self, tmp_path):
        root = coherence_tree(
            tmp_path,
            cli_extra='p.add_argument("--new-knob", type=int)',
        )
        search = root / "src/repro/core/search.py"
        search.write_text(
            search.read_text() + "    new_knob: int = 0\n", encoding="utf-8"
        )
        result = analyze_paths(
            [str(root / "src")],
            select=["EPI433", "EPI434"],
            repo_root=str(root),
        )
        assert rules_of(result) == ["EPI434"]

    def test_no_repo_root_skips_family(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/metricsrc.py": """
                def record(registry):
                    registry.inc("epi4_mystery_total", 1.0)
            """,
        })
        result = analyze_paths(
            [str(root)], select=["EPI431", "EPI432"], repo_root=None
        )
        assert rules_of(result) == []


# --------------------------------------------------------------------- #
# Suppressions (EPI400 + mechanics)


class TestSuppressions:
    def test_inline_suppression_with_reason(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dist/merge.py": """
                import time

                def stamp():
                    return time.time()  # epi4lint: disable=EPI401 bench-only stamp
            """,
        })
        result = run(root, select=["EPI401"])
        assert rules_of(result) == []
        assert [f.rule for f in result.suppressed] == ["EPI401"]
        assert result.suppressed[0].suppress_reason == "bench-only stamp"

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dist/merge.py": """
                import time

                def stamp():
                    # epi4lint: disable=EPI401 bench-only stamp
                    return time.time()
            """,
        })
        result = run(root, select=["EPI401"])
        assert rules_of(result) == []
        assert len(result.suppressed) == 1

    def test_file_level_suppression(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dist/merge.py": """
                # epi4lint: disable-file=EPI401 fixture exercises clocks on purpose
                import time

                def stamp():
                    return time.time()

                def stamp2():
                    return time.time()
            """,
        })
        result = run(root, select=["EPI401"])
        assert rules_of(result) == []
        assert len(result.suppressed) == 2

    def test_reasonless_suppression_is_epi400_and_keeps_finding(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dist/merge.py": """
                import time

                def stamp():
                    return time.time()  # epi4lint: disable=EPI401
            """,
        })
        result = run(root, select=["EPI401"])
        rules = rules_of(result)
        assert "EPI400" in rules and "EPI401" in rules
        assert result.suppressed == []

    def test_malformed_directive_is_epi400(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/x.py": """
                # epi4lint: frobnicate=EPI401 nope
                VALUE = 1
            """,
        })
        result = run(root, select=["EPI401"])
        assert rules_of(result) == ["EPI400"]

    def test_suppression_does_not_leak_to_other_rules(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/journal.py": """
                import os

                def publish(tmp, final):
                    os.replace(tmp, final)  # epi4lint: disable=EPI421 covered by caller fsync
            """,
        })
        result = run(root, select=["EPI421", "EPI422"])
        assert rules_of(result) == ["EPI422"]
        assert [f.rule for f in result.suppressed] == ["EPI421"]


# --------------------------------------------------------------------- #
# Reporters


class TestReporters:
    def _result(self, tmp_path) -> AnalysisResult:
        root = write_tree(tmp_path, {
            "repro/dist/merge.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        return run(root, select=["EPI401"])

    def test_text_report_format(self, tmp_path):
        result = self._result(tmp_path)
        text = render_text(result)
        assert "EPI401" in text
        assert "merge.py:5:" in text
        assert "determinism=1" in text

    def test_text_report_clean(self):
        text = render_text(AnalysisResult(
            findings=[], suppressed=[], files_scanned=3,
            rules_run=("EPI401",),
        ))
        assert "clean" in text

    def test_json_round_trip(self, tmp_path):
        result = self._result(tmp_path)
        doc = json.loads(render_json(result))
        assert doc["version"] == 1
        assert doc["exit_code"] == FAMILY_EXIT_BITS["determinism"]
        restored = [Finding.from_dict(d) for d in doc["findings"]]
        assert restored == result.findings

    def test_json_suppressed_round_trip(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/dist/merge.py": """
                import time

                def stamp():
                    return time.time()  # epi4lint: disable=EPI401 fixture
            """,
        })
        result = run(root, select=["EPI401"])
        doc = json.loads(render_json(result))
        assert doc["exit_code"] == 0
        restored = [Finding.from_dict(d) for d in doc["suppressed"]]
        assert restored == result.suppressed
        assert restored[0].suppress_reason == "fixture"
