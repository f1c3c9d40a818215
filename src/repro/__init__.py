"""Epi4Tensor reproduction: tensor-accelerated fourth-order epistasis detection.

A full-system Python reproduction of *"Tensor-Accelerated Fourth-Order
Epistasis Detection on GPUs"* (Nobre, Santander-Jiménez, Ilic, Sousa — ICPP
2022), with the GPU binary tensor cores simulated by exact AND+POPC /
XOR+POPC GEMM engines and a calibrated device performance model.

Quickstart::

    from repro import generate_random_dataset, search_best_quad

    dataset = generate_random_dataset(n_snps=64, n_samples=512, seed=0)
    result = search_best_quad(dataset, block_size=16)
    print(result.best_quad, result.best_score)

See ``README.md`` for the architecture overview and ``DESIGN.md`` /
``EXPERIMENTS.md`` for the reproduction inventory.
"""

from repro.core.blocks import useful_ratio
from repro.core.solution import Solution
from repro.datasets import (
    Dataset,
    encode_dataset,
    generate_epistatic_dataset,
    generate_random_dataset,
    load_dataset,
    save_dataset,
)
from repro.device.specs import A100_PCIE, A100_SXM4, SYSTEMS, TITAN_RTX
from repro.scoring import K2Score

__version__ = "1.0.0"

_LAZY_EXPORTS = {
    "Epi4TensorSearch": ("repro.core.search", "Epi4TensorSearch"),
    "SearchConfig": ("repro.core.search", "SearchConfig"),
    "SearchResult": ("repro.core.search", "SearchResult"),
    "search_best_quad": ("repro.core.search", "search_best_quad"),
    "predict_search": ("repro.perfmodel.model", "predict_search"),
    "predict_multi_gpu": ("repro.perfmodel.model", "predict_multi_gpu"),
}


def __getattr__(name: str):
    # Search/perfmodel exports are lazy to keep light imports (datasets,
    # scoring) cheap and cycle-free.
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attr = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "A100_PCIE",
    "A100_SXM4",
    "Dataset",
    "Epi4TensorSearch",
    "K2Score",
    "SYSTEMS",
    "SearchConfig",
    "SearchResult",
    "Solution",
    "TITAN_RTX",
    "encode_dataset",
    "generate_epistatic_dataset",
    "generate_random_dataset",
    "load_dataset",
    "predict_multi_gpu",
    "predict_search",
    "save_dataset",
    "search_best_quad",
    "useful_ratio",
]
