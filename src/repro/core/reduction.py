"""Score reduction (paper §3.5).

On the GPU the reduction cascades through private, shared and global memory;
functionally it is a minimum over ``(score, packed-index)`` pairs.  Packed
indices order quads lexicographically, which fixes the tie-break and makes
results independent of round scheduling (and of how many devices ran the
search).
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np

from repro.core.solution import Solution, pack_quad


def reduce_round(
    scores: np.ndarray,
    offsets: tuple[int, int, int, int],
    best_so_far: Solution,
) -> Solution:
    """Fold one round's ``(B, B, B, B)`` score grid into the running best.

    Masked (non-useful) positions must be ``+inf``.  ``np.argmin`` returns
    the first minimum in C order, which is exactly the lexicographically
    smallest quad of that round — consistent with the packed-index ordering.

    Args:
        scores: round scores with ``+inf`` at masked positions.
        offsets: global first-SNP indices of the four blocks.
        best_so_far: the running :class:`Solution`.

    Returns:
        The better of ``best_so_far`` and this round's best.
    """
    flat_pos = int(np.argmin(scores))
    score = float(scores.flat[flat_pos])
    if not np.isfinite(score):
        return best_so_far
    wi, xi, yi, zi = np.unravel_index(flat_pos, scores.shape)
    quad = (
        offsets[0] + int(wi),
        offsets[1] + int(xi),
        offsets[2] + int(yi),
        offsets[3] + int(zi),
    )
    candidate = Solution(score=score, packed=pack_quad(*quad))
    return min(best_so_far, candidate)


def reduce_solutions(solutions: list[Solution]) -> Solution:
    """Host-side final reduction over per-device local bests (§3.6)."""
    if not solutions:
        return Solution.worst()
    return min(solutions)


class TopKReducer:
    """Running top-``k`` reduction over round score grids.

    Real epistasis tooling reports a ranked candidate list, not just the
    single optimum; this reducer extends the paper's min-reduction to the
    ``k`` best quads.  Each distinct quad is scored exactly once across the
    search (the validity mask guarantees it), so no dedup is needed.

    Thread-safe: all mutators and accessors serialize on an internal lock,
    so device worker threads can :meth:`merge` their local reductions into
    a shared global reducer concurrently.  The result is order-independent
    — "keep the k smallest" over a totally ordered, deduplicated candidate
    set is associative and commutative — which is what keeps multi-device
    runs bit-identical to 1-device ones.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._lock = threading.RLock()
        self._solutions: list[Solution] = []

    def add_round(
        self, scores: np.ndarray, offsets: tuple[int, int, int, int]
    ) -> None:
        """Fold one round's ``(B, B, B, B)`` score grid into the top-k."""
        flat = scores.ravel()
        take = min(self.k, flat.size)
        # argpartition gives the k smallest in arbitrary order; masked
        # positions are +inf and fall out below.
        candidate_pos = np.argpartition(flat, take - 1)[:take]
        candidates: list[Solution] = []
        for pos in candidate_pos:
            score = float(flat[pos])
            if not np.isfinite(score):
                continue
            wi, xi, yi, zi = np.unravel_index(int(pos), scores.shape)
            quad = (
                offsets[0] + int(wi),
                offsets[1] + int(xi),
                offsets[2] + int(yi),
                offsets[3] + int(zi),
            )
            candidates.append(Solution(score=score, packed=pack_quad(*quad)))
        with self._lock:
            self._solutions.extend(candidates)
            if len(self._solutions) > 4 * self.k:
                self._truncate()

    def seed(self, solutions: "Iterable[Solution]") -> None:
        """Inject externally persisted candidates (journal resume,
        warm starts) through the public reduction path.

        Equivalent to merging a reducer that already held ``solutions``:
        the candidates participate in the usual dedup + truncate, so
        seeding is idempotent and order-independent like every other
        mutation.
        """
        incoming = list(solutions)
        with self._lock:
            self._solutions.extend(incoming)
            self._truncate()

    def merge(self, other: "TopKReducer") -> None:
        """Fold another reducer's candidates in (host-side, multi-device).

        Only ``other``'s top-k can survive the fold, so its truncated
        :meth:`result` is merged — which also keeps lock acquisition
        one-reducer-at-a-time (no lock-ordering deadlocks).
        """
        incoming = other.result() if other is not self else []
        with self._lock:
            self._solutions.extend(incoming)
            self._truncate()

    def _truncate(self) -> None:
        # Dedup by quad so merging overlapping candidate sets (e.g. a
        # journal resume re-scoring an iteration) stays idempotent.
        # Callers hold self._lock (RLock: safe from public methods here).
        self._solutions.sort()
        seen: set[int] = set()
        unique = []
        for sol in self._solutions:
            if sol.packed not in seen:
                seen.add(sol.packed)
                unique.append(sol)
        self._solutions = unique[: self.k]

    def kth_score(self) -> float:
        """Current ``k``-th best score, or ``+inf`` while under-filled.

        The branch-and-bound prune threshold: a candidate whose score
        provably exceeds this value cannot enter the final top-k.  Safe
        at any point during the search — the reducer's candidate set only
        grows, so the k-th best of any intermediate subset is ``>=`` the
        final k-th best, and pruning strictly above it can never drop a
        final top-k member.  ``+inf`` (fewer than ``k`` candidates held)
        disables pruning entirely.  Thread-safe like every accessor.
        """
        with self._lock:
            self._truncate()
            if len(self._solutions) < self.k:
                return float("inf")
            return self._solutions[self.k - 1].score

    def result(self) -> list[Solution]:
        """The final ranked list (best first), length <= k."""
        with self._lock:
            self._truncate()
            return list(self._solutions)

    @property
    def best(self) -> Solution:
        """Current best (identity element if empty)."""
        with self._lock:
            self._truncate()
            return self._solutions[0] if self._solutions else Solution.worst()
