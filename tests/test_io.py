"""Unit tests for dataset persistence."""

import warnings

import numpy as np
import pytest

from repro.datasets import (
    generate_random_dataset,
    load_dataset,
    load_dataset_csv,
    save_dataset,
    save_dataset_csv,
)


class TestNpzRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = generate_random_dataset(6, 40, seed=5)
        path = tmp_path / "ds.npz"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.genotypes, ds.genotypes)
        np.testing.assert_array_equal(loaded.phenotypes, ds.phenotypes)
        assert loaded.snp_names == ds.snp_names

    def test_rejects_unknown_version(self, tmp_path):
        ds = generate_random_dataset(3, 10, seed=0)
        path = tmp_path / "ds.npz"
        np.savez_compressed(
            path,
            format_version=np.int64(99),
            genotypes=ds.genotypes,
            phenotypes=ds.phenotypes,
            snp_names=np.array(ds.snp_names),
        )
        with pytest.raises(ValueError, match="format version 99"):
            load_dataset(path)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = generate_random_dataset(5, 30, seed=2)
        path = tmp_path / "ds.csv"
        save_dataset_csv(path, ds)
        loaded = load_dataset_csv(path)
        np.testing.assert_array_equal(loaded.genotypes, ds.genotypes)
        np.testing.assert_array_equal(loaded.phenotypes, ds.phenotypes)
        assert loaded.snp_names == ds.snp_names

    def test_rejects_bad_phenotype(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,class\n0,1,2\n")
        with pytest.raises(ValueError, match="phenotype"):
            load_dataset_csv(path)

    def test_rejects_bad_genotype(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,class\n0,7,1\n")
        with pytest.raises(ValueError, match="genotype"):
            load_dataset_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n"])
    def test_rejects_header_only(self, tmp_path, body):
        path = tmp_path / "header.csv"
        path.write_text("s1,s2,class\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy "no data" warning
            with pytest.raises(ValueError, match="no data rows"):
                load_dataset_csv(path)

    def test_rejects_single_column(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("class\n1\n")
        with pytest.raises(ValueError, match="at least one SNP"):
            load_dataset_csv(path)

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,class\n0,1\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)
