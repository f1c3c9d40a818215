"""epi4lint: repo-specific static analysis for the epi4tensor codebase.

The repo's headline guarantee — bit-identical top-k digests across
engines, threading, batching, sharding and resume — is
enforced dynamically by the equivalence suites, but a *new* call site
that breaks the rules (a stray ``time.time()`` in a digest path, an
unguarded mutation of a shared reducer, a ``rename`` without ``fsync``)
is invisible to them until it corrupts a run.  This package makes those
invariants machine-checked at review time.

Four rule families (see :mod:`repro.analysis.registry` and
``docs/static_analysis.md`` for the catalogue):

- **determinism** (``EPI401``–``EPI403``): no wall-clock, RNG, UUID or
  unordered-collection iteration inside modules/functions on the
  digest/merge/journal/plan/bounds paths;
- **concurrency** (``EPI411``–``EPI413``): guarded-by discipline for
  the registered thread-shared classes plus lock-acquisition-order
  cycle detection;
- **durability** (``EPI421``–``EPI423``): fsync-before-rename,
  directory fsync after rename, and atomic-writer discipline for
  artifact files;
- **coherence** (``EPI431``–``EPI434``): every emitted ``epi4_*``
  metric is documented (and vice versa), every ``SearchConfig`` field
  has a CLI flag and a README row.

Findings are suppressible in source with a written reason::

    os.replace(tmp, path)  # epi4lint: disable=EPI421 scratch file, torn copy is discarded on reload

Entry points: ``python -m repro.analysis [paths]`` (text/JSON
reporters, per-family exit-code bits) and :func:`analyze_paths` for
programmatic use (the tier-1 gate in ``tests/test_static_analysis.py``).
"""

from repro.analysis.model import AnalysisResult, Finding, Project, SourceFile
from repro.analysis.registry import (
    FAMILIES,
    FAMILY_EXIT_BITS,
    all_rules,
    exit_code_for,
    rules_by_id,
)
from repro.analysis.walker import analyze_paths, load_project

__all__ = [
    "AnalysisResult",
    "Finding",
    "Project",
    "SourceFile",
    "FAMILIES",
    "FAMILY_EXIT_BITS",
    "all_rules",
    "rules_by_id",
    "exit_code_for",
    "analyze_paths",
    "load_project",
]
