"""Tests for the epi4tensor CLI."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.datasets import generate_random_dataset, save_dataset, save_dataset_csv


class TestSearch:
    def test_synthetic_search(self, capsys):
        assert main(
            ["search", "--snps", "12", "--samples", "128", "--block-size", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "#1:" in out
        assert "useful" in out

    def test_top_k_and_pvalue(self, capsys):
        assert main(
            ["search", "--snps", "12", "--samples", "128", "--block-size", "4",
             "--top-k", "3", "--permutations", "19"]
        ) == 0
        out = capsys.readouterr().out
        assert "#3:" in out
        assert "p-value" in out

    def test_plink_input(self, tmp_path, capsys):
        from repro.datasets import generate_random_dataset, save_plink

        ds = generate_random_dataset(8, 80, maf_range=(0.15, 0.35), seed=4)
        prefix = tmp_path / "study"
        save_plink(prefix, ds)
        assert main(["search", "--input", str(prefix), "--block-size", "4"]) == 0
        assert "loaded" in capsys.readouterr().out

    def test_npz_input(self, tmp_path, capsys):
        ds = generate_random_dataset(10, 100, seed=1)
        path = tmp_path / "ds.npz"
        save_dataset(path, ds)
        assert main(["search", "--input", str(path), "--block-size", "4"]) == 0
        assert "loaded" in capsys.readouterr().out

    def test_csv_input(self, tmp_path, capsys):
        ds = generate_random_dataset(8, 80, seed=1)
        path = tmp_path / "ds.csv"
        save_dataset_csv(path, ds)
        assert main(["search", "--input", str(path), "--block-size", "4"]) == 0

    def test_alternative_engine(self, capsys):
        assert main(
            [
                "search", "--snps", "10", "--samples", "96",
                "--block-size", "4",
                "--engine", "xor_popc", "--gpu", "Titan RTX",
            ]
        ) == 0
        assert "xor_popc" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--top-k", "0"], "top_k"),
            (["--n-gpus", "0"], "n_gpus"),
            (["--block-size", "0"], "block_size"),
            (["--batch-rounds", "0"], "batch_rounds"),
            (["--permutations", "-5"], "--permutations"),
            (["--gpu", "H100"], "H100"),
            (["--input", "missing.npz"], "missing.npz"),
            (["--shards", "2", "--top-k", "0"], "top_k"),
            # Rejected by the sharded search's device model and shard
            # plan: still before --dist-dir is created.
            (["--shards", "2", "--n-gpus", "0"], "n_gpus"),
            (["--shards", "9", "--block-size", "4"], "n_shards"),
        ],
    )
    def test_bad_value_is_a_usage_error(
        self, flags, named, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["search", "--snps", "10", "--samples", "96", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and named in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_error_while_running_keeps_its_traceback(self, monkeypatch):
        from repro.core.search import Epi4TensorSearch

        def fail(self, journal_path=None):
            raise ValueError("raised by the running search")

        monkeypatch.setattr(Epi4TensorSearch, "run", fail)
        with pytest.raises(ValueError, match="running search"):
            main(["search", "--snps", "10", "--samples", "96"])


class TestPredict:
    def test_single_gpu(self, capsys):
        assert main(["predict", "--snps", "2048", "--samples", "262144"]) == 0
        assert "tera" in capsys.readouterr().out

    def test_multi_gpu(self, capsys):
        assert main(
            [
                "predict", "--snps", "4096", "--samples", "524288",
                "--gpu", "A100 SXM4", "--n-gpus", "8",
            ]
        ) == 0
        assert "speedup" in capsys.readouterr().out


class TestFigures:
    @pytest.mark.parametrize("which", ["table1", "fig3", "table2", "ratios"])
    def test_prints(self, which, capsys):
        assert main(["figures", which]) == 0
        assert capsys.readouterr().out.strip()

    def test_fig2(self, capsys):
        assert main(["figures", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "S1" in out and "S2" in out

    def test_csv_export(self, tmp_path, capsys):
        assert main(["figures", "all", "--csv", str(tmp_path)]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {
            "table1_systems.csv",
            "fig2_single_gpu.csv",
            "fig3_multi_gpu.csv",
            "table2_related_work.csv",
            "unique_ratios.csv",
            "sycl_speedups.csv",
        } <= names
        header = (tmp_path / "fig3_multi_gpu.csv").read_text().splitlines()[0]
        assert "speedup" in header

    def test_all_requires_csv(self):
        with pytest.raises(SystemExit):
            main(["figures", "all"])


class TestQc:
    def test_qc_summary_and_output(self, tmp_path, capsys):
        ds = generate_random_dataset(10, 300, maf_range=(0.2, 0.4), seed=3)
        src = tmp_path / "in.npz"
        out = tmp_path / "out.npz"
        save_dataset(src, ds)
        assert main(["qc", str(src), "--output", str(out)]) == 0
        assert "QC: kept" in capsys.readouterr().out
        assert out.exists()

    def test_qc_custom_thresholds(self, tmp_path, capsys):
        ds = generate_random_dataset(8, 200, maf_range=(0.1, 0.4), seed=4)
        src = tmp_path / "in.npz"
        save_dataset(src, ds)
        assert main(["qc", str(src), "--min-maf", "0.01"]) == 0


class TestCheckpointFlag:
    def test_search_with_checkpoint(self, tmp_path, capsys):
        journal = tmp_path / "run.journal"
        args = ["search", "--snps", "10", "--samples", "80",
                "--block-size", "5", "--journal", str(journal)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert journal.exists()
        assert main(args) == 0  # resume: nothing left to do, same answer
        second = capsys.readouterr().out
        assert first.splitlines()[1] == second.splitlines()[1]  # same #1 line
        assert "0 commit(s) appended" in second


class TestGenerate:
    def test_random(self, tmp_path, capsys):
        path = tmp_path / "out.npz"
        assert main(["generate", str(path), "--snps", "8", "--samples", "64"]) == 0
        assert path.exists()

    def test_planted(self, tmp_path, capsys):
        path = tmp_path / "out.npz"
        assert main(
            ["generate", str(path), "--snps", "8", "--samples", "64",
             "--plant-interaction"]
        ) == 0
        assert "planted" in capsys.readouterr().out


class TestClosedStdout:
    def test_reader_closing_after_one_line_leaves_no_traceback(self):
        # ``epi4tensor search ... | head -1``: the reader takes the first
        # line and closes its end while the search is still running.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        # Unbuffered, each print writes through, so the lines after the
        # search hit the closed pipe instead of one exit-time flush.
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "search", "--snps", "24",
             "--samples", "128", "--block-size", "4", "--top-k", "5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline().startswith(b"generated")
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in stderr


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
