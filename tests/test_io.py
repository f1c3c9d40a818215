"""Unit tests for dataset persistence."""

import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets import (
    Dataset,
    generate_random_dataset,
    load_dataset,
    load_dataset_csv,
    load_plink,
    save_dataset,
    save_dataset_csv,
    save_plink,
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

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n", "# note\n  # x\n"])
    def test_rejects_header_only(self, tmp_path, body):
        path = tmp_path / "header.csv"
        path.write_text("s1,s2,class\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy "no data" warning
            with pytest.raises(ValueError, match="no data rows"):
                load_dataset_csv(path)

    def test_skips_comments(self, tmp_path):
        path = tmp_path / "notes.csv"
        path.write_text("a,b,class\n# first\n0,1,1  # trailing\n2,0,0\n")
        ds = load_dataset_csv(path)
        assert ds.genotypes.tolist() == [[0, 2], [1, 0]]
        assert ds.phenotypes.tolist() == [True, False]

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


#: One malformed CSV per way a cell or row can fail to parse.
MALFORMED_CSV = {
    "non-numeric": b"a,b,class\n0,x,1\n",
    "empty-cell": b"a,b,class\n0,,1\n",
    "non-integer": b"a,b,class\n0,1.5,1\n",
    "int64-overflow": b"a,b,class\n0,99999999999999999999,1\n",
    "ragged": b"a,b,class\n0,1,1\n0,1\n",
    "invalid-utf8": b"a,b,class\n0,\xff,1\n",
}


class TestMalformedInputNamesTheFile:
    @pytest.mark.parametrize(
        "body", list(MALFORMED_CSV.values()), ids=list(MALFORMED_CSV)
    )
    def test_csv(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: ") as exc:
            load_dataset_csv(path)
        assert type(exc.value) is ValueError  # not UnicodeDecodeError

    @pytest.mark.parametrize("ext", ["ped", "map"])
    def test_plink_invalid_utf8(self, tmp_path, ext):
        prefix = tmp_path / "study"
        save_plink(prefix, generate_random_dataset(3, 8, seed=1))
        path = tmp_path / f"study.{ext}"
        path.write_bytes(path.read_bytes() + b"\xc3(\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: ") as exc:
            load_plink(prefix)
        assert type(exc.value) is ValueError  # not UnicodeDecodeError


_VALID = Dataset(
    genotypes=np.array([[0, 1, 2, 1, 0], [2, 0, 1, 1, 2], [1, 1, 0, 2, 0]]),
    phenotypes=np.array([0, 1, 0, 1, 1], dtype=bool),
)
#: Bytes a mutation writes: the format's own separators and digits, the
#: bytes of common breakage, and any byte at all.
_MUTANT_BYTES = st.one_of(
    st.sampled_from(list(b",\n\r\t #-.0129AB\x00\x85\xc3\xff")),
    st.integers(0, 255),
)


def _valid_bytes(save, name: str, exts: tuple[str, ...]) -> dict[str, bytes]:
    """``{ext: bytes}`` of the files ``save`` writes for ``_VALID``."""
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, name)
        save(base, _VALID)
        out = {}
        for ext in exts:
            with open(base + ext, "rb") as fh:
                out[ext] = fh.read()
        return out


@st.composite
def _mutated(draw, base: bytes) -> bytes:
    """``base`` after one to eight byte replacements, insertions or
    deletions, or a truncation."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        pos = draw(st.integers(0, len(data)))
        if op == "insert":
            data.insert(pos, draw(_MUTANT_BYTES))
        elif op == "truncate":
            del data[pos:]
        elif pos < len(data):
            if op == "replace":
                data[pos] = draw(_MUTANT_BYTES)
            else:
                del data[pos]
    return bytes(data)


def _load_or_value_error(load, arg, path):
    """``load(arg)`` gives a ``Dataset`` or a ``ValueError`` naming
    ``path``, and never a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = load(arg)
        except ValueError as err:
            assert type(err) is ValueError, repr(err)
            assert str(err).startswith(str(path)), str(err)
            return
    assert isinstance(result, Dataset)


@pytest.mark.property
class TestMalformedInputFuzz:
    """Mutated bytes of valid files reach the caller as a ``Dataset`` or
    as a ``ValueError`` that names the file: never an ``IndexError``, a
    ``UnicodeDecodeError`` or a numpy warning."""

    CSV = _valid_bytes(save_dataset_csv, "ds.csv", ("",))[""]
    PLINK = _valid_bytes(save_plink, "ds", (".ped", ".map"))

    @given(body=_mutated(CSV))
    def test_csv(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ds.csv")
            with open(path, "wb") as fh:
                fh.write(body)
            _load_or_value_error(load_dataset_csv, path, path)

    @given(
        ped=st.one_of(st.just(PLINK[".ped"]), _mutated(PLINK[".ped"])),
        map_=st.one_of(st.just(PLINK[".map"]), _mutated(PLINK[".map"])),
        missing=st.sampled_from(["error", "drop"]),
    )
    def test_plink(self, ped, map_, missing):
        with tempfile.TemporaryDirectory() as tmp:
            prefix = os.path.join(tmp, "ds")
            for ext, body in (("ped", ped), ("map", map_)):
                with open(f"{prefix}.{ext}", "wb") as fh:
                    fh.write(body)
            _load_or_value_error(
                lambda p: load_plink(p, missing=missing), prefix, prefix
            )
