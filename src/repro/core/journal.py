"""Crash-safe round journal: an append-only, CRC-framed write-ahead log.

The journal is the search's resume mechanism, built on the classic WAL
discipline: one *appended*, CRC-framed record per committed outer
(``Wi``) iteration, fsynced before the commit is considered durable.  A
process killed at **any** byte offset leaves a valid frame prefix plus
at most one torn tail frame; recovery replays the prefix, drops the
tail, and the (idempotent, merge-only) search re-executes only the
iterations whose commit frame never became durable — exactly-once
resume with a bit-identical top-k.

Frame layout (little-endian)::

    +----------+----------------+---------------+------------------+
    | magic 2B | payload len 4B | CRC32 4B      | payload (JSON)   |
    |  "EJ"    | uint32         | of payload    | UTF-8, len bytes |
    +----------+----------------+---------------+------------------+

The first frame is always a ``header`` record carrying the journal
schema version and the search fingerprint (see
:func:`search_fingerprint`).  Subsequent frames are ``commit`` records::

    {"type": "commit", "wi": 7, "solutions": [[score, packed], ...]}

Each commit snapshots the *current* top-k (tiny: ``k`` pairs), so
recovery needs only the last valid commit frame for candidates and the
set of all commit frames for the completed set.  Duplicate ``wi``
commits are a protocol violation (the exactly-once property) and are
rejected both at append time and at recovery time.

Compaction
----------

An unbounded log would grow by one frame per iteration forever, so
:meth:`RoundJournal.compact` rewrites it as header + one ``snapshot``
frame (completed set + candidates) using the atomic sequence: write
``<path>.tmp`` → fsync file → ``os.replace`` → fsync directory.  A
crash anywhere in compaction leaves either the complete old log or the
complete new one, never a mix.  :meth:`RoundJournal.open` compacts
automatically when the replayed log carries more than
``compact_after`` frames.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import warnings
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

from repro.core.reduction import TopKReducer
from repro.core.solution import Solution
from repro.utils.fs import fsync_directory

#: Journal schema version (bumped on any frame/record format change).
JOURNAL_VERSION = 1

#: Frame preamble: 2-byte magic + uint32 payload length + uint32 CRC32.
_MAGIC = b"EJ"
_PREAMBLE = struct.Struct("<2sII")
_MAX_FRAME_BYTES = 16 * 1024 * 1024  # sanity bound against garbage lengths


def search_fingerprint(
    n_snps: int,
    n_real_snps: int,
    n_controls: int,
    n_cases: int,
    block_size: int,
    engine_kind: str,
    top_k: int,
    n_gpus: int,
) -> str:
    """Stable identity of a search's dataset shape + configuration.

    Deliberately shape-based (not content-hashed): hashing a multi-GB
    dataset on every resume would defeat the purpose; the guard catches the
    realistic failure mode (resuming with the wrong file or settings).
    The search scores with K2 only, so its ``S`` clause is the literal
    ``Sk2`` — kept so journals written when the score was configurable
    still resume.
    """
    return (
        f"M{n_snps}r{n_real_snps}c{n_controls}k{n_cases}B{block_size}"
        f"E{engine_kind}Sk2K{top_k}G{n_gpus}"
    )


def domain_clause(nb: int, iterations: "list[int] | tuple[int, ...]") -> str:
    """Fingerprint clause identifying a *restricted* outer-iteration domain.

    A sharded run executes only a subset of the ``nb`` outer (``Wi``)
    iterations; its journal must not be confused with another shard's (or
    with a full run's) even when every other configuration clause
    matches.  The clause digests ``nb`` plus the sorted iteration list, so
    any difference in the domain yields a different fingerprint and
    resume from the wrong file is refused with the standard
    fingerprint-mismatch error.

    An unrestricted domain (all ``nb`` iterations) returns ``""``, so a
    full run's fingerprint carries no domain clause.
    """
    domain = sorted(int(i) for i in iterations)
    if domain == list(range(nb)):
        return ""
    spec = f"{nb}:" + ",".join(str(i) for i in domain)
    return "+W" + hashlib.sha256(spec.encode("ascii")).hexdigest()[:12]


class JournalError(ValueError):
    """The journal belongs to a different search or violates the
    exactly-once protocol (duplicate commit)."""


@dataclass
class JournalStats:
    """What recovery and subsequent appends observed (for metrics)."""

    commits: int = 0          # commit frames appended this process
    replayed: int = 0         # commit frames recovered from disk
    torn_bytes: int = 0       # trailing garbage dropped at recovery
    compactions: int = 0


class RoundJournal:
    """Append-only commit log for one search run.

    Use :meth:`open` (recovers existing state) rather than the
    constructor.  Thread-safe: commits from concurrent device workers
    serialize on an internal lock, in commit order — the same order the
    reducer merges, so the last frame's snapshot is always the newest.
    """

    def __init__(
        self,
        path: str,
        fingerprint: str,
        completed: set[int],
        solutions: list[Solution],
        stats: JournalStats,
        meta: dict | None = None,
    ) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.completed = completed
        self.solutions = solutions
        self.stats = stats
        #: Caller-supplied identity metadata carried in the header frame
        #: (e.g. ``{"shard_index": 2, "shard_count": 8}``); checked on
        #: reopen so one shard's journal cannot be resumed as another's.
        self.meta = dict(meta or {})
        self._lock = threading.Lock()
        self._fh = open(path, "ab")

    # ------------------------------------------------------------------ #
    # Recovery

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        fingerprint: str,
        compact_after: int = 4096,
        meta: dict | None = None,
    ) -> "RoundJournal":
        """Open (creating or recovering) the journal at ``path``.

        Replays every valid frame; a torn tail — any truncation or
        partial append left by a crash — is dropped with the file
        truncated back to the last valid frame boundary, so the next
        append never interleaves with garbage.

        Args:
            meta: optional identity metadata (JSON-safe dict) written into
                the header frame of a fresh journal and compared on reopen
                — a mismatch is refused like a fingerprint mismatch.
                ``None`` skips the comparison (legacy callers).

        Raises:
            JournalError: wrong fingerprint, mismatched header metadata,
                newer schema version, or a duplicate commit frame
                (exactly-once violation).
        """
        path = os.fspath(path)
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        completed: set[int] = set()
        solutions: list[Solution] = []
        stats = JournalStats()
        frames = 0
        valid_end = 0
        recovered_meta: dict = dict(meta or {})
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            offset = 0
            while True:
                frame = _read_frame(data, offset)
                if frame is None:
                    break
                payload, offset = frame
                if frames == 0:
                    _check_header(path, payload, fingerprint, meta)
                    recovered_meta = dict(payload.get("meta") or {})
                else:
                    _apply_record(path, payload, completed, solutions, stats)
                frames += 1
                valid_end = offset
            torn = len(data) - valid_end
            if torn:
                stats.torn_bytes = torn
                warnings.warn(
                    f"journal {path}: dropping {torn} torn trailing "
                    f"byte(s) left by a crash ({frames} valid frame(s) "
                    "recovered)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                with open(path, "r+b") as fh:
                    fh.truncate(valid_end)
                    fh.flush()
                    os.fsync(fh.fileno())
        journal = cls(
            path, fingerprint, completed, solutions, stats, recovered_meta
        )
        if frames == 0:
            # Fresh file (or one truncated inside the header): start over.
            journal._fh.truncate(0)
            header = {
                "type": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
            }
            if journal.meta:
                header["meta"] = journal.meta
            journal._append_locked(header)
        elif frames > compact_after:
            journal.compact()
        return journal

    # ------------------------------------------------------------------ #
    # Commits

    def commit(self, wi: int, solutions: list[Solution]) -> None:
        """Durably record one finished outer iteration.

        The frame is flushed and fsynced before returning: once this
        method returns, a crash at any later byte offset still resumes
        with ``wi`` marked done.

        Raises:
            JournalError: if ``wi`` was already committed (the caller's
                done-set should have prevented re-execution).
        """
        with self._lock:
            if wi in self.completed:
                raise JournalError(
                    f"journal {self.path}: outer iteration {wi} committed "
                    "twice — exactly-once protocol violated"
                )
            self._append_locked(
                {
                    "type": "commit",
                    "wi": int(wi),
                    "solutions": [[s.score, s.packed] for s in solutions],
                }
            )
            self.completed.add(int(wi))
            self.solutions = list(solutions)
            self.stats.commits += 1

    def seed_reducer(self, reducer: TopKReducer) -> None:
        """Re-inject recovered candidates into a fresh reducer."""
        reducer.seed(self.solutions)

    # ------------------------------------------------------------------ #
    # Compaction

    def compact(self) -> None:
        """Rewrite the log as header + one snapshot frame, atomically."""
        with self._lock:
            tmp = self.path + ".tmp"
            header = {
                "type": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": self.fingerprint,
            }
            if self.meta:
                header["meta"] = self.meta
            with open(tmp, "wb") as fh:
                fh.write(_frame(header))
                fh.write(
                    _frame(
                        {
                            "type": "snapshot",
                            "completed": sorted(self.completed),
                            "solutions": [
                                [s.score, s.packed] for s in self.solutions
                            ],
                        }
                    )
                )
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            fsync_directory(os.path.dirname(self.path) or ".")
            self._fh = open(self.path, "ab")
            self.stats.compactions += 1

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "RoundJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def _append_locked(self, record: dict) -> None:
        self._fh.write(_frame(record))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def export_metrics(self, registry: MetricsRegistry) -> None:
        registry.set_gauge("epi4_journal_commits_total", float(self.stats.commits))
        registry.set_gauge("epi4_journal_replayed_total", float(self.stats.replayed))
        registry.set_gauge("epi4_journal_torn_bytes", float(self.stats.torn_bytes))
        registry.set_gauge(
            "epi4_journal_compactions_total", float(self.stats.compactions)
        )


# ---------------------------------------------------------------------- #
# Frame codec


def _frame(record: dict) -> bytes:
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _PREAMBLE.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload


def _read_frame(data: bytes, offset: int) -> tuple[dict, int] | None:
    """Decode one frame at ``offset``; ``None`` on any damage.

    Damage — short preamble, wrong magic, absurd length, short payload,
    CRC mismatch, non-JSON payload — all mean the same thing here: the
    valid prefix ends before ``offset`` + this frame.
    """
    end = offset + _PREAMBLE.size
    if end > len(data):
        return None
    magic, length, crc = _PREAMBLE.unpack_from(data, offset)
    if magic != _MAGIC or length > _MAX_FRAME_BYTES:
        return None
    if end + length > len(data):
        return None
    payload = data[end:end + length]
    if zlib.crc32(payload) != crc:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    return record, end + length


def _check_header(
    path: str, record: dict, fingerprint: str, meta: dict | None = None
) -> None:
    if record.get("type") != "header":
        raise JournalError(f"journal {path}: first frame is not a header")
    version = record.get("version")
    if not isinstance(version, int) or version > JOURNAL_VERSION:
        raise JournalError(
            f"journal {path} has schema version {version!r}, newer than "
            f"the supported {JOURNAL_VERSION}; upgrade, or delete the "
            "journal to restart"
        )
    if record.get("fingerprint") != fingerprint:
        raise JournalError(
            f"journal {path} belongs to a different search (fingerprint "
            f"{record.get('fingerprint')!r}, expected {fingerprint!r}); "
            "delete it or change the path"
        )
    if meta is not None and dict(record.get("meta") or {}) != dict(meta):
        raise JournalError(
            f"journal {path} carries header metadata "
            f"{record.get('meta')!r}, expected {meta!r} (e.g. a different "
            "shard's journal at this path); delete it or change the path"
        )


def _apply_record(
    path: str,
    record: dict,
    completed: set[int],
    solutions: list[Solution],
    stats: JournalStats,
) -> None:
    rtype = record.get("type")
    if rtype == "commit":
        wi = int(record["wi"])
        if wi in completed:
            raise JournalError(
                f"journal {path}: outer iteration {wi} committed twice — "
                "exactly-once protocol violated"
            )
        completed.add(wi)
        solutions[:] = [
            Solution(score=float(s), packed=int(p))
            for s, p in record["solutions"]
        ]
        stats.replayed += 1
    elif rtype == "snapshot":
        completed.update(int(i) for i in record["completed"])
        solutions[:] = [
            Solution(score=float(s), packed=int(p))
            for s, p in record["solutions"]
        ]
    else:
        raise JournalError(
            f"journal {path}: unknown record type {rtype!r}"
        )
