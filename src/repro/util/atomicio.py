"""Crash-consistent file primitives shared across the stack.

Three layers publish files through the same atomic dance — the
checkpoint generations under a search journal directory
(:meth:`repro.search.journal.CheckpointGenerations.save`, the only
on-disk checkpoint store, which publishes the canonical payload bytes
it hashed through :func:`atomic_write_bytes`), the bench table's
manifest (:mod:`repro.bench.table`), and the trend files
``BENCH_substrate.json`` and ``VERIFY_report.json``, whose one writer
is :func:`append_trend_record`.  The dance matters because write-to-tmp
plus atomic ``replace`` alone is *not* crash-safe: a host crash can tear
the tmp write (the rename then publishes garbage) or lose the rename
itself (the data never became durable).  So:

1. write the payload to ``<path>.tmp`` and ``fsync`` the file;
2. atomically ``rename`` it over ``path``;
3. ``fsync`` the containing directory so the rename is durable.

After :func:`atomic_write_bytes` returns, either the old or the new file
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
import platform
import time
from pathlib import Path

import numpy as np

__all__ = ["fsync_dir", "atomic_write_bytes", "atomic_write_text",
           "atomic_write_json", "append_trend_record", "FsyncPolicy"]


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


def atomic_write_bytes(path: str | Path, *chunks) -> Path:
    """Durably publish the concatenation of the bytes-like ``chunks`` at
    ``path`` (tmp + fsync + rename + dir-fsync); returns the published
    path.  Chunks are written as given, so a caller can publish a slice
    of a large buffer without copying it."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    fsync_dir(path.parent or Path("."))
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Durably publish ``text`` (UTF-8) at ``path``."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str | Path, data, **dumps_kwargs) -> Path:
    """Durably publish ``data`` as JSON at ``path``.

    ``dumps_kwargs`` pass through to :func:`json.dumps`, so a call site
    keeps its byte format (the bench manifest's compact sorted form).
    """
    return atomic_write_text(path, json.dumps(data, **dumps_kwargs))


def append_trend_record(path: str | Path, key: str, payload,
                        label: str | None = None) -> int:
    """Append one timestamped ``{key: payload}`` record to the JSON-list
    trend file at ``path``; returns how many records it now holds.

    The record also names the Python, numpy and machine it was taken on,
    and ``label`` when given.  An existing file that is not a JSON list
    raises :class:`ValueError` and keeps its bytes, so a torn or foreign
    file is never replaced by a one-entry history.
    """
    path = Path(path)
    runs = []
    if path.exists():
        try:
            runs = json.loads(path.read_text())
        except ValueError as exc:
            raise ValueError(f"{path} does not parse as a trend history "
                             f"({exc}); repair or move it") from None
        if not isinstance(runs, list):
            raise ValueError(f"{path} holds no JSON list of records")
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        key: payload,
    }
    if label:
        record["label"] = label
    runs.append(record)
    atomic_write_text(path, json.dumps(runs, indent=2) + "\n")
    return len(runs)


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
