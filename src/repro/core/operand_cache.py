"""Round-operand cache: memory-bounded reuse of combine/sweep results.

The Algorithm 1 loop nest re-derives the same intermediate operands many
times: the ``combine`` output for a block pair ``(A, B)`` is needed as
``wx`` for one outer pair, as ``wy``/``xy`` for every enclosing triple and
as ``yz`` for every enclosing round, and the third-order sweep launched
from a combined pair is identical wherever that pair re-appears (its tail
always starts at the second block's offset).  On the real system this
redundancy is deliberate — recomputing on-device is cheaper than spilling
— but it is *bounded* redundancy, which makes it an ideal target for an
explicitly byte-accounted cache sized against the device memory model
(:func:`repro.device.memory.estimate_search_memory` carries the budget as
a first-class component).

:class:`OperandCache` is a thread-safe LRU keyed on
``(kind, cls, off_a, off_b)``:

- ``("combine", cls, a, b)`` — the :class:`~repro.bitops.BitMatrix` from
  :func:`~repro.bitops.combine.combine_blocks`;
- ``("sweep", cls, a, b)`` — the ``tensorOp_3way`` corner sweep of that
  combined operand over the tail ``[b, M)``.

Capacity is accounted in *bytes* of stored payload (``nbytes``), not entry
counts, so the cache composes with the §3.3 memory-fit check.  Lookups are
**single-flight**: when several device threads miss on the same key
concurrently, exactly one computes while the others wait — device work
accounting therefore stays exact (one launch per unique operand) even
under the thread-parallel multi-device executor.

Hit/miss/eviction totals are surfaced through :class:`CacheStats` (the
``epi4_cache_*`` series); a cache hit skips the corresponding
kernel-launch accounting entirely so the performance model never
double-counts work that was not executed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["CacheStats", "OperandCache", "UNBOUNDED"]

#: Sentinel capacity meaning "no byte bound" (the working set is still
#: finite — see :func:`repro.device.memory.cache_working_set_bytes`).
UNBOUNDED = float("inf")


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache statistics snapshot.

    Attributes:
        hits: lookups served from the cache (including waits on another
            thread's in-flight computation).
        misses: lookups that had to compute.
        evictions: entries removed to respect the byte budget (including
            values too large to ever be admitted).
        current_bytes: bytes resident right now.
        peak_bytes: high-water mark of resident bytes.
        capacity_bytes: configured budget (``inf`` when unbounded).
    """

    hits: int
    misses: int
    evictions: int
    current_bytes: int
    peak_bytes: int
    capacity_bytes: float

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def export_metrics(self, registry: MetricsRegistry) -> None:
        """Mirror this snapshot into a
        :class:`~repro.obs.metrics.MetricsRegistry`.

        Emits the ``hits + misses == lookups`` triple the property suite
        checks, plus eviction/occupancy series.
        """
        registry.inc("epi4_cache_lookups_total", self.hits, result="hit")
        registry.inc("epi4_cache_lookups_total", self.misses, result="miss")
        registry.inc("epi4_cache_evictions_total", self.evictions)
        registry.set_gauge("epi4_cache_resident_bytes", self.current_bytes)
        registry.set_gauge("epi4_cache_peak_bytes", self.peak_bytes)
        registry.set_gauge(
            "epi4_cache_capacity_bytes",
            -1.0 if self.capacity_bytes == UNBOUNDED else self.capacity_bytes,
        )


class _Pending:
    """In-flight computation marker (single-flight)."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class OperandCache:
    """Byte-accounted, thread-safe LRU cache for round operands.

    Args:
        capacity_bytes: byte budget for resident payloads.  ``0`` would
            mean "nothing fits" — construct no cache at all in that case
            (see :meth:`create`).  ``float("inf")`` disables eviction.

    Values are treated as immutable once inserted; NumPy arrays are marked
    read-only on admission so accidental in-place mutation of a shared
    operand fails loudly instead of corrupting other rounds.
    """

    def __init__(self, capacity_bytes: float) -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be > 0 (got {capacity_bytes}); "
                "use OperandCache.create() to express 'disabled'"
            )
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        # key -> (value, nbytes) in LRU order (least recent first).
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._pending: dict[Hashable, _Pending] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._current_bytes = 0
        self._peak_bytes = 0

    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, cache_mb: float | None) -> "OperandCache | None":
        """Build a cache from a megabyte budget; ``None``/``0`` disables.

        Args:
            cache_mb: budget in MB (``float("inf")`` = unbounded).

        Returns:
            An :class:`OperandCache`, or ``None`` when caching is off.
        """
        if cache_mb is None or cache_mb <= 0:
            return None
        if cache_mb == UNBOUNDED:
            return cls(UNBOUNDED)
        return cls(cache_mb * 1e6)

    # ------------------------------------------------------------------ #

    def get_or_compute(
        self, key: Hashable, factory: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Return the cached value for ``key``, computing it on first use.

        Single-flight: concurrent callers missing on the same key block
        until the one executing ``factory`` finishes, then observe a hit.

        Args:
            key: hashable cache key.
            factory: zero-argument callable producing the value (anything
                with an ``nbytes`` size).  It runs *outside* the cache lock.

        Returns:
            ``(value, hit)`` — ``hit`` is ``True`` when no computation
            happened on this call.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry[0], True
                pending = self._pending.get(key)
                if pending is None:
                    pending = _Pending()
                    self._pending[key] = pending
                    break
            # Another thread is computing this key: wait outside the lock,
            # then re-check (the value may be admitted or rejected).
            pending.event.wait()

        try:
            value = factory()
        except BaseException:
            with self._lock:
                del self._pending[key]
            pending.event.set()
            raise

        size = int(value.nbytes)
        with self._lock:
            self._misses += 1
            del self._pending[key]
            if size <= self.capacity_bytes:
                self._entries[key] = (value, size)
                self._current_bytes += size
                while self._current_bytes > self.capacity_bytes:
                    _, (_, old_size) = self._entries.popitem(last=False)
                    self._current_bytes -= old_size
                    self._evictions += 1
                self._peak_bytes = max(self._peak_bytes, self._current_bytes)
            else:
                # Value can never fit: count the rejection as an eviction
                # so the budget pressure is visible in the counters.
                self._evictions += 1
        pending.event.set()
        _freeze(value)
        return value, False

    def get(self, key: Hashable) -> Any | None:
        """Non-computing lookup (promotes on hit, counts hit/miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def clear(self) -> None:
        """Drop every resident entry (stats are preserved)."""
        with self._lock:
            evicted = len(self._entries)
            self._entries.clear()
            self._current_bytes = 0
            self._evictions += evicted

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                current_bytes=self._current_bytes,
                peak_bytes=self._peak_bytes,
                capacity_bytes=self.capacity_bytes,
            )

    def __repr__(self) -> str:
        s = self.stats
        cap = "inf" if s.capacity_bytes == UNBOUNDED else f"{s.capacity_bytes / 1e6:.1f}MB"
        return (
            f"OperandCache(cap={cap}, resident={s.current_bytes / 1e6:.1f}MB, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )


def _freeze(value: Any) -> None:
    """Best-effort write-protection of cached payloads."""
    import numpy as np

    if isinstance(value, np.ndarray):
        try:
            value.setflags(write=False)
        except ValueError:  # pragma: no cover - non-owning views
            pass
    else:
        data = getattr(value, "data", None)
        if isinstance(data, np.ndarray):
            try:
                data.setflags(write=False)
            except ValueError:  # pragma: no cover
                pass
