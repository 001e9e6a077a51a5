"""Arch→metrics benchmark table: crash-consistent shards + manifest.

NAS-Bench-201 turned NAS research into table lookups by recording every
architecture's trained result once.  This module is that record for the
repro spaces: a directory holding

* ``shard-NNNNN.jsonl`` — append-only JSON-lines shards, one row per
  *isomorphism class* (rows are keyed by the
  :func:`~repro.nas.plancache.plan_signature` of the compiled plan, so
  structurally identical action sequences share one entry);
* ``manifest.json`` — the fsync'd source of truth: format version,
  space metadata, and the list of *sealed* shards with row counts and
  content hashes.

Crash consistency follows the checkpoint-generation pattern
(:mod:`repro.util.atomicio`): rows are flushed per append (a SIGKILLed
sweep loses at most the torn trailing line), shards are fsynced when
sealed, and the manifest is published by
write-tmp → fsync → atomic rename → directory fsync.  After any kill,
the manifest plus its sealed shards are a consistent prefix of the
sweep, and the unsealed tail shard is recovered tolerantly — so a
resumed sweep re-evaluates nothing that already reached a shard.

The wire format is **v1** and pinned by a golden test
(``tests/golden/bench_table_v1_schema.json``): changing a field name or
type requires bumping :data:`TABLE_FORMAT_VERSION` deliberately.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..util.atomicio import atomic_write_json

__all__ = ["TABLE_FORMAT_VERSION", "TableRow", "TableWriter", "ArchTable"]

TABLE_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class TableRow:
    """One isomorphism class's recorded evaluation."""

    sig: str                  # plan_signature of the compiled plan
    space: str
    choices: tuple[int, ...]  # representative action sequence (first seen)
    reward: float
    duration: float           # single-node wall seconds (real or modelled)
    params: int
    timed_out: bool = False

    def to_json(self) -> dict:
        return {"sig": self.sig, "space": self.space,
                "choices": list(self.choices), "reward": self.reward,
                "duration": self.duration, "params": self.params,
                "timed_out": self.timed_out}

    @classmethod
    def from_json(cls, data: dict) -> "TableRow":
        return cls(sig=str(data["sig"]), space=str(data["space"]),
                   choices=tuple(int(c) for c in data["choices"]),
                   reward=float(data["reward"]),
                   duration=float(data["duration"]),
                   params=int(data["params"]),
                   timed_out=bool(data["timed_out"]))


def _atomic_write_json(path: Path, data: dict) -> None:
    """The PR-7 atomic-publish pattern, via the shared helper: tmp write
    + fsync, rename, directory fsync — a crash leaves either the old or
    the new file.  Keeps the compact sorted byte format the manifest
    hash tests pin."""
    atomic_write_json(path, data, separators=(",", ":"), sort_keys=True)


def _read_rows(path: Path, sha256: str | None = None) -> list[TableRow]:
    """Rows of one shard file.  A sealed shard (``sha256`` given) must
    be whole and hash to its manifest entry, which is computed as the
    rows are read; an unsealed one drops a torn trailing line (the
    residue of a kill mid-append) instead of raising."""
    rows: list[TableRow] = []
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for line in fh:
            digest.update(line)
            try:
                if not line.endswith(b"\n") or not line.strip():
                    raise ValueError(f"torn line in sealed shard {path}")
                # decoding first skips json's per-call encoding sniff
                rows.append(TableRow.from_json(json.loads(line.decode())))
            except (ValueError, KeyError):
                if sha256 is None:
                    break
                raise
    if sha256 is not None and digest.hexdigest() != sha256:
        raise ValueError(f"sealed shard {path.name} does not match the "
                         f"sha256 in its manifest")
    return rows


def _read_table(directory: Path) -> tuple[dict, dict, list[TableRow]]:
    """Read a table directory once: ``(manifest, sealed rows by
    signature, rows of the unsealed tail shard)``.  Each sealed shard
    must match its manifest entry's row count and sha256; the tail a
    killed sweep left behind is read tolerantly."""
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {_MANIFEST} in {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != "repro-bench-table":
        raise ValueError(f"{directory} is not a repro bench table")
    if manifest.get("version") != TABLE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported table version {manifest.get('version')!r}")
    rows: dict[str, TableRow] = {}
    for entry in manifest["shards"]:
        shard_rows = _read_rows(directory / entry["name"], entry["sha256"])
        if len(shard_rows) != entry["rows"]:
            raise ValueError(
                f"sealed shard {entry['name']} has {len(shard_rows)} "
                f"rows, manifest says {entry['rows']}")
        for row in shard_rows:
            rows[row.sig] = row
    tail = directory / _shard_name(len(manifest["shards"]))
    return manifest, rows, _read_rows(tail) if tail.exists() else []


def _shard_name(index: int) -> str:
    return f"shard-{index:05d}.jsonl"


def _shard_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TableWriter:
    """Appends rows to a table directory, sealing shards as it goes.

    Opening a directory that already holds a (possibly killed) sweep
    *resumes* it: sealed shards are trusted from the manifest, the
    unsealed tail shard is recovered tolerantly and rewritten clean, and
    ``known`` is primed so the sweeper can skip everything already
    recorded.  Metadata must match the existing manifest — a table is
    one (space, reward-model) world, never a mixture.
    """

    def __init__(self, directory: str | Path, space_name: str,
                 shard_size: int = 256,
                 metadata: dict | None = None) -> None:
        if shard_size <= 0:
            raise ValueError("shard_size must be positive")
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.space_name = space_name
        self.shard_size = shard_size
        self.metadata = dict(metadata or {})
        #: signatures already recorded (sealed, recovered, or appended)
        self.known: dict[str, TableRow] = {}
        #: rows salvaged from an unsealed shard of a killed sweep
        self.recovered_rows = 0
        self._shards: list[dict] = []     # sealed-shard manifest entries
        self._open_rows: list[TableRow] = []
        self._fh = None

        if (self.dir / _MANIFEST).exists():
            self._resume()
        else:
            self._write_manifest()
        self._open_current_shard()

    # -- resume --------------------------------------------------------
    def _resume(self) -> None:
        manifest, self.known, tail_rows = _read_table(self.dir)
        if manifest.get("space") != self.space_name:
            raise ValueError(
                f"table {self.dir} is for space {manifest.get('space')!r}, "
                f"not {self.space_name!r}")
        if manifest.get("metadata") != self.metadata:
            raise ValueError(
                f"table {self.dir} was swept with metadata "
                f"{manifest.get('metadata')!r}; refusing to mix in "
                f"{self.metadata!r}")
        self._shards = list(manifest["shards"])
        # recover the unsealed tail shard a kill may have left behind
        tail = self.dir / _shard_name(len(self._shards))
        if tail.exists():
            fresh = [r for r in tail_rows if r.sig not in self.known]
            self.recovered_rows = len(fresh)
            for row in fresh:
                self.known[row.sig] = row
            self._open_rows = fresh
            # rewrite clean (drops any torn trailing line) before
            # appending resumes
            with open(tail, "w", encoding="utf-8") as fh:
                for row in fresh:
                    fh.write(json.dumps(row.to_json(),
                                        separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())

    def _open_current_shard(self) -> None:
        path = self.dir / _shard_name(len(self._shards))
        self._fh = open(path, "a", encoding="utf-8")

    # -- writing -------------------------------------------------------
    def append(self, row: TableRow) -> bool:
        """Record one row; returns False (and writes nothing) when the
        signature is already known."""
        if row.sig in self.known:
            return False
        self.known[row.sig] = row
        self._open_rows.append(row)
        self._fh.write(json.dumps(row.to_json(),
                                  separators=(",", ":")) + "\n")
        self._fh.flush()    # survives SIGKILL of this process
        if len(self._open_rows) >= self.shard_size:
            self.seal_shard()
        return True

    def seal_shard(self) -> None:
        """Fsync + close the open shard and publish it in the manifest."""
        if not self._open_rows:
            return
        os.fsync(self._fh.fileno())
        self._fh.close()
        path = self.dir / _shard_name(len(self._shards))
        self._shards.append({"name": path.name,
                             "rows": len(self._open_rows),
                             "sha256": _shard_sha256(path)})
        self._open_rows = []
        self._write_manifest()
        self._open_current_shard()

    def _write_manifest(self) -> None:
        _atomic_write_json(self.dir / _MANIFEST, {
            "format": "repro-bench-table",
            "version": TABLE_FORMAT_VERSION,
            "space": self.space_name,
            "metadata": self.metadata,
            "total_rows": sum(e["rows"] for e in self._shards),
            "shards": self._shards,
        })

    def close(self) -> None:
        """Seal whatever is open; idempotent."""
        if self._fh is None:
            return
        self.seal_shard()
        self._fh.close()
        # remove the empty shard file the final reopen created
        tail = self.dir / _shard_name(len(self._shards))
        if tail.exists() and tail.stat().st_size == 0:
            tail.unlink()
        self._fh = None

    def __enter__(self) -> "TableWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.known)

    @property
    def num_shards(self) -> int:
        """Sealed shards published in the manifest."""
        return len(self._shards)


class ArchTable:
    """A loaded arch→metrics table serving O(1) signature lookups."""

    def __init__(self, space_name: str, rows: dict[str, TableRow],
                 metadata: dict | None = None) -> None:
        self.space_name = space_name
        self.rows = rows
        self.metadata = dict(metadata or {})

    @classmethod
    def load(cls, directory: str | Path) -> "ArchTable":
        """Load a table directory — including, tolerantly, the unsealed
        tail shard of a killed sweep, so a partial table is usable."""
        manifest, rows, tail_rows = _read_table(Path(directory))
        for row in tail_rows:
            rows.setdefault(row.sig, row)
        return cls(manifest["space"], rows,
                   metadata=manifest.get("metadata", {}))

    # -- lookups -------------------------------------------------------
    def get(self, sig: str) -> TableRow | None:
        return self.rows.get(sig)

    def __contains__(self, sig: str) -> bool:
        return sig in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def optimum(self) -> TableRow:
        """The global-optimum row (highest reward; ties broken by
        signature so the answer is deterministic)."""
        if not self.rows:
            raise ValueError("empty table has no optimum")
        return max(self.rows.values(), key=lambda r: (r.reward, r.sig))

    def regret(self, reward: float) -> float:
        """Exact regret of a reward against the table's optimum."""
        return self.optimum().reward - reward

    def fingerprint(self) -> str:
        """Canonical content hash: independent of shard layout and row
        order, so an interrupted-and-resumed sweep fingerprints
        identically to an uninterrupted one."""
        payload = {
            "version": TABLE_FORMAT_VERSION,
            "space": self.space_name,
            "rows": [self.rows[sig].to_json()
                     for sig in sorted(self.rows)],
        }
        blob = json.dumps(payload, separators=(",", ":"),
                          sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
