"""Tier-1 gate: the epi4lint analyzer holds zero findings on ``src/``.

This is the enforcement half of the analyzer: the whole source tree
must pass every determinism/concurrency/durability/coherence rule, any
suppression must carry a written reason, and seeding a violation into a
copy of a deterministic module must make the gate fail (so the gate is
demonstrably not vacuous).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.cli import main
from repro.analysis.registry import FAMILY_EXIT_BITS

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def _format(findings):
    return "\n".join(
        f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}" for f in findings
    )


class TestSourceTreeIsClean:
    def test_zero_findings_on_src(self):
        result = analyze_paths([str(SRC)], repo_root=str(REPO_ROOT))
        assert result.findings == [], (
            "epi4lint found violations in src/ — fix them or suppress "
            "with a written reason:\n" + _format(result.findings)
        )

    def test_every_suppression_carries_a_reason(self):
        result = analyze_paths([str(SRC)], repo_root=str(REPO_ROOT))
        for finding in result.suppressed:
            assert finding.suppress_reason, (
                f"suppressed finding without a reason: {finding}"
            )

    def test_scans_the_whole_tree(self):
        result = analyze_paths([str(SRC)], repo_root=str(REPO_ROOT))
        assert result.files_scanned == len(list(SRC.rglob("*.py")))
        assert len(result.rules_run) == 13


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        code = main([str(SRC), "--repo-root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out

    def test_json_output_parses(self, capsys):
        code = main([str(SRC), "--repo-root", str(REPO_ROOT),
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["version"] == 1
        assert doc["findings"] == []
        assert doc["exit_code"] == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("EPI400", "EPI401", "EPI411", "EPI421", "EPI431"):
            assert rule_id in out

    def test_unknown_select_errors(self, capsys):
        assert main([str(SRC), "--select", "EPI999"]) == 2


class TestSeededViolationsFail:
    """Copy real modules, inject the canonical violations, and require
    the gate to catch them — proof the rules bind to this codebase."""

    def test_wallclock_seeded_into_merge(self, tmp_path, capsys):
        dist = tmp_path / "repro" / "dist"
        dist.mkdir(parents=True)
        text = (SRC / "repro" / "dist" / "merge.py").read_text()
        text += (
            "\n\nimport time as _seeded_clock\n\n"
            "def _seeded_stamp():\n"
            "    return _seeded_clock.time()\n"
        )
        (dist / "merge.py").write_text(text)
        code = main([str(tmp_path), "--select", "EPI401"])
        out = capsys.readouterr().out
        assert code == FAMILY_EXIT_BITS["determinism"]
        assert "EPI401" in out and "time.time()" in out

    def test_dropped_lock_seeded_into_reducer(self, tmp_path, capsys):
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        text = (SRC / "repro" / "core" / "reduction.py").read_text()
        assert "with self._lock:" in text
        (core / "reduction.py").write_text(
            text.replace("with self._lock:", "if True:", 1)
        )
        code = main([str(tmp_path), "--select", "EPI411"])
        out = capsys.readouterr().out
        assert code == FAMILY_EXIT_BITS["concurrency"]
        assert "EPI411" in out and "TopKReducer" in out

    def test_dropped_fsync_seeded_into_atomic_writer(self, tmp_path, capsys):
        utils = tmp_path / "repro" / "utils"
        utils.mkdir(parents=True)
        text = (SRC / "repro" / "utils" / "fs.py").read_text()
        assert "os.fsync(fh.fileno())" in text
        (utils / "fs.py").write_text(
            text.replace("os.fsync(fh.fileno())", "pass", 1)
        )
        code = main([str(tmp_path), "--select", "EPI421,EPI422,EPI423"])
        out = capsys.readouterr().out
        assert code == FAMILY_EXIT_BITS["durability"]
        assert "EPI421" in out

    def test_untouched_copies_stay_clean(self, tmp_path):
        """The seeded tests above fail because of the seeds, not because
        copying out of the tree breaks module resolution."""
        for rel in ("dist/merge.py", "core/reduction.py", "utils/fs.py"):
            dest = tmp_path / "repro" / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(SRC / "repro" / rel, dest)
        result = analyze_paths(
            [str(tmp_path)],
            select=["EPI401", "EPI411", "EPI421", "EPI422", "EPI423"],
            repo_root=None,
        )
        assert result.findings == [], _format(result.findings)
