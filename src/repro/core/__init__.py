"""The Epi4Tensor core: the paper's Algorithm 1 and its supporting pieces.

Public entry points:

- :class:`Epi4TensorSearch` / :func:`search_best_quad` — the exhaustive
  fourth-order search driver.
- :class:`SearchConfig` — block size, engine selection, streams, chunking.
- :class:`SearchResult` — best solution plus kernel/phase statistics.
"""

from repro.core.blocks import (
    BlockScheme,
    iter_rounds,
    num_blocks,
    total_quads_processed,
    unique_combinations,
    useful_ratio,
)
from repro.core.solution import MAX_SNP_INDEX, Solution, pack_quad, unpack_quad

_SEARCH_EXPORTS = (
    "Epi4TensorSearch",
    "SearchConfig",
    "SearchResult",
    "search_best_quad",
)


def __getattr__(name: str):
    # The search driver imports the device and perfmodel layers, which in
    # turn use repro.core.blocks/threeway/fourway; loading it lazily keeps
    # `import repro.core.blocks` (and friends) cycle-free.
    if name in _SEARCH_EXPORTS:
        from repro.core import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BlockScheme",
    "Epi4TensorSearch",
    "MAX_SNP_INDEX",
    "SearchConfig",
    "SearchResult",
    "Solution",
    "iter_rounds",
    "num_blocks",
    "pack_quad",
    "search_best_quad",
    "total_quads_processed",
    "unique_combinations",
    "unpack_quad",
    "useful_ratio",
]
