"""Search-log persistence: JSON-lines export/import of reward records.

The paper's analytics module parses the logs a NAS run leaves behind
(reward trajectory, best architectures, unique-architecture counts).
Here a run's records serialize to a JSON-lines file with a header line
describing the run, so analyses can be re-run offline and across
processes.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..search.base import RewardRecord

__all__ = ["save_records", "load_records"]

_FORMAT_VERSION = 1


def save_records(records: list[RewardRecord], path: str | Path,
                 metadata: dict | None = None) -> None:
    """Write records as JSON lines; the first line is a header."""
    path = Path(path)
    header = {"format": "repro-nas-log", "version": _FORMAT_VERSION,
              "num_records": len(records), "metadata": metadata or {}}
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in records:
            fh.write(json.dumps(rec.to_json()) + "\n")


def load_records(path: str | Path) -> tuple[list[RewardRecord], dict]:
    """Read a JSON-lines log; returns (records, metadata)."""
    path = Path(path)
    with path.open() as fh:
        header = json.loads(fh.readline())
        if header.get("format") != "repro-nas-log":
            raise ValueError(f"{path} is not a repro NAS log")
        if header.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported log version {header.get('version')}")
        records = [RewardRecord.from_json(json.loads(line)) for line in fh]
    if len(records) != header["num_records"]:
        raise ValueError(
            f"truncated log: expected {header['num_records']} records, "
            f"found {len(records)}")
    return records, header.get("metadata", {})

