"""CUDA-stream concurrency model (paper §4.4/§4.5) and its host execution
counterpart.

The paper optionally runs multiple evaluation rounds concurrently through
multiple CUDA streams per GPU.  Streams do not change results; they overlap
kernel ramp-up/launch gaps, which "only resulted in significantly improved
performance for datasets with small amounts of samples" — i.e. exactly when
single-GEMM efficiency is low.

Two sides of that are modelled here:

- :class:`StreamModel` — the *performance-model* side: a saturation law
  where ``s`` streams lift the achieved tensor efficiency to
  ``1 - (1 - eff)^s``, capped at the kernel's speed-of-light fraction.
- :class:`HostStream` — the *execution* side: an in-order, single-worker
  command queue (the host analogue of one CUDA stream) on which the
  search's operand stager prepares round group ``r+1`` while group ``r``
  scores on the calling thread.  Like a CUDA stream, submissions execute
  strictly in order and never change results.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

#: Cap on how many round groups the stager keeps in flight beyond the one
#: currently scoring (deep lookahead buys nothing once stage and score are
#: fully overlapped, but holds extra staged operands resident).
MAX_STAGE_LOOKAHEAD = 4


def stage_lookahead(n_streams: int) -> int:
    """Stage-ahead depth for ``n_streams`` host streams: one stream scores
    while the others stage, so ``n_streams - 1`` groups may be in flight
    (capped at :data:`MAX_STAGE_LOOKAHEAD`; 0 = no overlap)."""
    return max(0, min(n_streams - 1, MAX_STAGE_LOOKAHEAD))


class HostStream:
    """An in-order host-side execution stream.

    A single worker thread drains submitted callables strictly in
    submission order — the host analogue of one CUDA stream's command
    queue.  Used by the search's double-buffered operand stager; created
    per ``Epi4TensorSearch._run_rounds`` call (one outer-iteration
    attempt) so retried iterations always start with an empty queue.
    """

    def __init__(self, name: str = "epi4-stream") -> None:
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix=name)

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Enqueue ``fn(*args, **kwargs)``; returns its :class:`Future`."""
        return self._pool.submit(fn, *args, **kwargs)

    def close(self, wait: bool = True) -> None:
        """Shut the stream down (optionally waiting for queued work)."""
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "HostStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass(frozen=True)
class StreamModel:
    """Per-GPU stream configuration.

    Attributes:
        n_streams: concurrent evaluation rounds (1 = serialized rounds, the
            paper's "S" configurations; >1 = "P" configurations).
    """

    n_streams: int = 1

    def __post_init__(self) -> None:
        if self.n_streams < 1:
            raise ValueError(f"n_streams must be >= 1, got {self.n_streams}")

    def effective_efficiency(self, base_efficiency: float, sol_cap: float) -> float:
        """Tensor efficiency after stream overlap.

        Args:
            base_efficiency: single-stream efficiency in ``[0, 1]``.
            sol_cap: the kernel speed-of-light ceiling.
        """
        if not 0.0 <= base_efficiency <= 1.0:
            raise ValueError(
                f"base_efficiency must be in [0, 1], got {base_efficiency}"
            )
        boosted = 1.0 - (1.0 - base_efficiency) ** self.n_streams
        return min(boosted, sol_cap)
