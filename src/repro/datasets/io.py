"""Dataset persistence.

Two formats are supported:

- a compact ``.npz`` binary format (:func:`save_dataset` /
  :func:`load_dataset`), the native interchange format of this library;
- a human-readable CSV format (:func:`save_dataset_csv` /
  :func:`load_dataset_csv`) compatible with the sample-dataset layout used by
  epistasis tools in this family (one sample per row, one SNP per column,
  genotype codes 0/1/2, final column ``class`` with the phenotype), so users
  can bring their own small datasets without writing a converter.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator

import numpy as np

from repro.datasets.dataset import Dataset

_FORMAT_VERSION = 1


@contextmanager
def open_utf8(path: str | os.PathLike) -> Iterator[IO[str]]:
    """Open ``path`` as UTF-8 text; a decode error anywhere in the ``with``
    body is re-raised as a ``ValueError`` that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as err:
        bad = err.object[err.start : err.end]
        raise ValueError(
            f"{path}: not UTF-8 text ({err.reason}: {bad!r})"
        ) from None


def save_dataset(path: str | os.PathLike, dataset: Dataset) -> None:
    """Write a dataset to ``path`` in the ``.npz`` interchange format."""
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        genotypes=dataset.genotypes,
        phenotypes=dataset.phenotypes,
        snp_names=np.array(dataset.snp_names, dtype=np.str_),
    )


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset format version {version} "
                f"(this build reads version {_FORMAT_VERSION})"
            )
        return Dataset(
            genotypes=archive["genotypes"],
            phenotypes=archive["phenotypes"],
            snp_names=tuple(str(s) for s in archive["snp_names"]),
        )


def save_dataset_csv(path: str | os.PathLike, dataset: Dataset) -> None:
    """Write a dataset as CSV: one sample per row, ``class`` column last."""
    header = ",".join((*dataset.snp_names, "class"))
    table = np.column_stack(
        [dataset.genotypes.T, dataset.phenotypes.astype(np.int8)]
    )
    np.savetxt(path, table, fmt="%d", delimiter=",", header=header, comments="")


def load_dataset_csv(path: str | os.PathLike) -> Dataset:
    """Read a CSV dataset written by :func:`save_dataset_csv` (or compatible).

    The file must have a header row; the last column is interpreted as the
    binary phenotype and every other column as one SNP's genotype codes.
    """
    with open_utf8(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: empty file")
        names = [c.strip() for c in header.split(",")]
        # numpy drops "#" comments and then blank lines.
        has_rows = any(line.split("#", 1)[0].strip() for line in fh)
    if len(names) < 2:
        raise ValueError(f"{path}: need at least one SNP column plus 'class'")
    if not has_rows:
        raise ValueError(f"{path}: no data rows")
    try:
        table = np.loadtxt(
            path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2,
            encoding="utf-8",
        )
    except ValueError as err:  # bad cell, int64 overflow or ragged row
        raise ValueError(f"{path}: {err}") from None
    if table.shape[1] != len(names):
        raise ValueError(
            f"{path}: header names {len(names)} columns but rows have {table.shape[1]}"
        )
    phenotypes = table[:, -1]
    if not np.isin(phenotypes, (0, 1)).all():
        raise ValueError(f"{path}: phenotype column must be 0/1")
    genotypes = table[:, :-1].T
    if genotypes.size and (genotypes.min() < 0 or genotypes.max() > 2):
        raise ValueError(f"{path}: genotype codes must be 0/1/2")
    return Dataset(
        genotypes=genotypes.astype(np.int8),
        phenotypes=phenotypes.astype(np.bool_),
        snp_names=tuple(names[:-1]),
    )
