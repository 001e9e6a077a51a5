"""Crash-consistent file primitives shared across the stack.

Two layers publish files through the same atomic dance — the
checkpoint generations under a search journal directory
(:meth:`repro.search.journal.CheckpointGenerations.save`, the only
on-disk checkpoint store) and the bench table's manifest
(:mod:`repro.bench.table`).  The dance matters because write-to-tmp
plus atomic ``replace`` alone is *not* crash-safe: a host crash can tear
the tmp write (the rename then publishes garbage) or lose the rename
itself (the data never became durable).  So:

1. write the payload to ``<path>.tmp`` and ``fsync`` the file;
2. atomically ``rename`` it over ``path``;
3. ``fsync`` the containing directory so the rename is durable.

After :func:`atomic_write_text` returns, either the old or the new file
survives a crash — never a torn hybrid.  A crash between steps 1 and 2
leaves a stale ``<path>.tmp`` behind; readers never open it, and the
next publish to ``path`` overwrites it.  Platforms without directory
fsync degrade to best effort.

:class:`FsyncPolicy` is the durability knob of the append-style journal
writer (:class:`~repro.search.journal.JournalWriter`, the only on-disk
event log): flush happens per record regardless; the policy decides how
often the OS buffers are additionally forced to stable storage.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["fsync_dir", "atomic_write_text", "atomic_write_json",
           "FsyncPolicy"]


def fsync_dir(path: str | Path) -> None:
    """Best-effort fsync of a directory (makes renames in it durable)."""
    try:
        dir_fd = os.open(Path(path) or Path("."), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass    # platforms without directory fsync: best effort


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Durably publish ``text`` at ``path`` (tmp + fsync + rename +
    dir-fsync); returns the published path."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    fsync_dir(path.parent or Path("."))
    return path


def atomic_write_json(path: str | Path, data, **dumps_kwargs) -> Path:
    """Durably publish ``data`` as JSON at ``path``.

    ``dumps_kwargs`` pass through to :func:`json.dumps`, so call sites
    keep their existing byte format (the bench manifest's compact
    sorted form, the checkpoint's default form).
    """
    return atomic_write_text(path, json.dumps(data, **dumps_kwargs))


class FsyncPolicy:
    """How often an append-style writer forces records to stable storage.

    ``every=None`` never fsyncs (flush-only — a process crash loses
    nothing, a host crash may lose OS-buffered records); ``every=N``
    fsyncs after every Nth record (``N=1`` is the classic write-ahead
    discipline: a record is durable before the caller proceeds).
    """

    def __init__(self, every: int | None = None) -> None:
        if every is not None and every <= 0:
            raise ValueError("fsync interval must be positive (or None)")
        self.every = every
        self._since = 0

    def tick(self, fileno: int) -> bool:
        """One record was written to ``fileno``; fsync if due."""
        if self.every is None:
            return False
        self._since += 1
        if self._since < self.every:
            return False
        self._since = 0
        try:
            os.fsync(fileno)
        except OSError:
            return False
        return True
