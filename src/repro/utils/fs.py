"""Filesystem durability helpers: the one atomic text writer and the
directory fsync it (and the journal) end with."""

from __future__ import annotations

import os


def fsync_directory(dirpath: str | os.PathLike) -> None:
    """fsync a directory so renames within it survive power loss.

    Best-effort on platforms whose directory handles refuse fsync
    (Windows, some network filesystems): failures are swallowed — the
    rename itself is still atomic, only the power-loss *ordering*
    guarantee is weakened, matching the previous behaviour there.
    """
    try:
        fd = os.open(os.fspath(dirpath), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: str | os.PathLike, text: str) -> str:
    """Publish ``text`` at ``path`` atomically and durably.

    Writes ``path + ".tmp"`` (creating missing parent directories),
    fsyncs it, renames it over ``path`` and fsyncs the directory, so a
    crash never leaves a half-written file and a published one survives
    power loss.  Returns the path written.
    """
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_directory(parent)
    return path
