"""Statistical association scores over case/control contingency tables.

The search scores with the Bayesian K2 score (paper §2, §3.5): lower is
stronger, ``lgamma`` values come from a lookup table, and a table's score
costs the same at any sample count.  The :class:`ScoreFunction` base lets
the baselines and the permutation test take any score that minimises.

Scores are *batched*: they accept ``(..., 3, 3, 3, 3)`` (or any order
``k``) tables per class and return ``(...)`` floats.
"""

from repro.scoring.base import ScoreFunction
from repro.scoring.bounds import PRUNE_SLACK, K2BoundKernel
from repro.scoring.k2 import K2Score
from repro.scoring.lgamma_table import LgammaTable

__all__ = [
    "K2BoundKernel",
    "K2Score",
    "LgammaTable",
    "PRUNE_SLACK",
    "ScoreFunction",
]
