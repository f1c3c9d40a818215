"""PLINK text-format (.ped/.map) reader and writer.

PLINK's .ped/.map pair is the lingua franca of GWAS tooling, so supporting
it makes the library usable on real study exports without conversion
scripts:

- ``<prefix>.map``: one SNP per line — ``chrom  snp_id  cM  position``.
- ``<prefix>.ped``: one sample per line — six leading columns
  (``FID IID PAT MAT SEX PHENOTYPE``) followed by two allele characters per
  SNP.  Phenotype coding: ``1`` = control, ``2`` = case (``0``/``-9`` =
  missing).  Missing genotypes are ``0 0``.

Genotypes are converted to minor-allele counts: the minor allele is
determined per SNP from the observed allele frequencies.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np

from repro.datasets.dataset import Dataset
from repro.datasets.io import open_utf8


def load_plink(
    prefix: str | os.PathLike, *, missing: str = "error"
) -> Dataset:
    """Read a PLINK ``<prefix>.ped`` / ``<prefix>.map`` pair.

    Args:
        prefix: path without extension.
        missing: ``"error"`` (reject files with missing phenotypes or
            genotypes) or ``"drop"`` (drop the affected samples).

    Returns:
        A :class:`~repro.datasets.Dataset` with SNP names from the .map
        file.
    """
    if missing not in ("error", "drop"):
        raise ValueError(f"missing must be 'error' or 'drop', got {missing!r}")
    prefix = os.fspath(prefix)
    snp_names = _read_map(prefix + ".map")
    n_snps = len(snp_names)

    sample_alleles: list[list[tuple[str, str]]] = []
    phenotypes: list[int] = []
    dropped = 0
    with open_utf8(prefix + ".ped") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 6 + 2 * n_snps:
                raise ValueError(
                    f"{prefix}.ped:{line_no}: expected {6 + 2 * n_snps} fields "
                    f"for {n_snps} SNPs, got {len(fields)}"
                )
            pheno = fields[5]
            alleles = [
                (fields[6 + 2 * i], fields[7 + 2 * i]) for i in range(n_snps)
            ]
            has_missing = pheno not in ("1", "2") or any(
                "0" in pair for pair in alleles
            )
            if has_missing:
                if missing == "error":
                    raise ValueError(
                        f"{prefix}.ped:{line_no}: missing phenotype or genotype "
                        "(use missing='drop' to skip such samples)"
                    )
                dropped += 1
                continue
            phenotypes.append(1 if pheno == "2" else 0)
            sample_alleles.append(alleles)
    if not sample_alleles:
        raise ValueError(f"{prefix}.ped: no usable samples (dropped {dropped})")

    n_samples = len(sample_alleles)
    genotypes = np.zeros((n_snps, n_samples), dtype=np.int8)
    for snp in range(n_snps):
        counts: Counter[str] = Counter()
        for sample in sample_alleles:
            counts.update(sample[snp])
        alleles_seen = [a for a, _ in counts.most_common()]
        if len(alleles_seen) > 2:
            raise ValueError(
                f"{prefix}.ped: SNP {snp_names[snp]} has more than two alleles: "
                f"{sorted(counts)}"
            )
        # The least frequent allele is the minor allele; monomorphic SNPs
        # count zero minor alleles everywhere.
        minor = alleles_seen[-1] if len(alleles_seen) == 2 else None
        if minor is not None:
            for s, sample in enumerate(sample_alleles):
                a, b = sample[snp]
                genotypes[snp, s] = (a == minor) + (b == minor)
    return Dataset(
        genotypes=genotypes,
        phenotypes=np.array(phenotypes, dtype=np.bool_),
        snp_names=tuple(snp_names),
    )


def save_plink(prefix: str | os.PathLike, dataset: Dataset) -> None:
    """Write a dataset as a PLINK ``.ped``/``.map`` pair.

    Minor-allele counts are rendered with the convention major = ``A``,
    minor = ``B``; positions in the .map file are synthetic (index-based).
    """
    prefix = os.fspath(prefix)
    with open(prefix + ".map", "w", encoding="utf-8") as fh:
        for i, name in enumerate(dataset.snp_names):
            fh.write(f"1\t{name}\t0\t{i + 1}\n")
    code_to_pair = {0: "A A", 1: "A B", 2: "B B"}
    with open(prefix + ".ped", "w", encoding="utf-8") as fh:
        for s in range(dataset.n_samples):
            pheno = 2 if dataset.phenotypes[s] else 1
            pairs = " ".join(
                code_to_pair[int(dataset.genotypes[m, s])]
                for m in range(dataset.n_snps)
            )
            fh.write(f"FAM{s} IND{s} 0 0 1 {pheno} {pairs}\n")


def _read_map(path: str) -> list[str]:
    names: list[str] = []
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) not in (3, 4):
                raise ValueError(
                    f"{path}:{line_no}: expected 3 or 4 columns, got {len(fields)}"
                )
            names.append(fields[1])
    if not names:
        raise ValueError(f"{path}: no SNPs")
    return names
