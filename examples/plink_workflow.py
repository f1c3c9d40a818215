#!/usr/bin/env python
"""The full "real tool" workflow on a PLINK study export.

Simulates what a user with an actual GWAS export does: load a PLINK
.ped/.map pair, run QC, run the exhaustive fourth-order search with a
resume journal, assess the winner's significance, and archive a text
report.

Run:  python examples/plink_workflow.py
"""

import tempfile
from pathlib import Path

from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import generate_epistatic_dataset, load_plink, save_plink
from repro.datasets.qc import apply_qc
from repro.reporting import format_search_report
from repro.scoring.significance import permutation_pvalue


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="epi4tensor_"))

    # --- 0. A "study export": PLINK files on disk -------------------------
    study, truth = generate_epistatic_dataset(
        20, 2000, interacting_snps=(2, 8, 13, 18), effect_size=2.8,
        maf_range=(0.2, 0.4), seed=42,
    )
    prefix = workdir / "study"
    save_plink(prefix, study)
    print(f"study files : {prefix}.ped / {prefix}.map  (truth: {truth})")

    # --- 1. Load + QC -------------------------------------------------------
    dataset = load_plink(prefix, missing="drop")
    dataset, qc = apply_qc(dataset, min_maf=0.05)
    print(f"loaded      : {dataset}")
    print(f"{qc.summary()}")

    # --- 2. Full search with a resume journal -----------------------------
    journal = workdir / "search.journal"
    result = Epi4TensorSearch(
        dataset, SearchConfig(block_size=5, top_k=3)
    ).run(journal_path=journal)
    print(f"best quad   : {result.best_quad} "
          f"({'== truth' if result.best_quad == truth else '!= truth'})")

    # --- 3. Significance ----------------------------------------------------
    perm = permutation_pvalue(
        dataset, result.best_quad, n_permutations=99, seed=1
    )
    print(f"p-value     : {perm.p_value:.3f} (99 permutations)")

    # --- 4. Report -----------------------------------------------------------
    report_path = workdir / "report.txt"
    report_path.write_text(format_search_report(result, dataset))
    print(f"report      : {report_path}")
    print(f"journal     : {journal} (delete to re-run from scratch)")


if __name__ == "__main__":
    main()
