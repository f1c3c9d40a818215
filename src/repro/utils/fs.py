"""Filesystem durability helper shared by every atomic writer."""

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
