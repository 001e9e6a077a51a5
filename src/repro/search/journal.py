"""Write-ahead search journal + checkpoint generations (crash-anywhere
durability).

Interval checkpoints bound the re-execution window of a killed search to
one checkpoint interval.  This module shrinks it to (at most) one
*evaluation*: every :class:`~repro.events.SearchEvent` the search emits
is appended — checksummed, before the search acts on it further — to a
JSONL write-ahead journal, and checkpoints are written as verified
*generations* next to it.  Resume then becomes:

1. load the newest checkpoint generation whose sha256 verifies (falling
   back generation by generation when the newest is torn or corrupt);
2. read the journal — tolerating a torn trailing record and skipping
   interior corruption — and turn its ``eval-done`` suffix into
   per-agent :class:`~repro.evaluator.broker.ReplayEval` queues;
3. restart the search from the checkpoint; when the resumed agents
   deterministically re-submit the architectures the dead run had
   already paid for, the brokers answer from the replay queues instead
   of re-executing the reward model.

The resumed run's determinism fingerprint is bit-identical to the
uninterrupted run's, and no architecture is ever evaluated twice — no
matter where the previous run was SIGKILLed (the crash-point fuzzer in
:mod:`repro.search.chaos` proves exactly this, one kill point at a
time).

Journal record format: one JSON object per line,
``{"seq": N, "crc": C, "ev": {...}}`` where ``C`` is the CRC32 of the
canonical dump (sorted keys, compact separators) of ``ev``.  The CRC is
recomputed from the re-parsed event on read, so any bit flip inside a
record — not just ones that break JSON syntax — is detected.  Balsam
(virtual-time) searches journal and checkpoint like every other
backend, but skip evaluation replay: their evaluations are simulated
jobs whose cost is virtual anyway, and the checkpoint alone already
resumes them deterministically.
"""

from __future__ import annotations

import json
import logging
import re
import zlib
from pathlib import Path

from ..evaluator.broker import ReplayEval
from ..events import (EVAL_DONE, RESTART, EventLog, EventSink, SearchEvent)
from ..nas.arch import Architecture
from ..nas.plancache import exact_key
from ..util.atomicio import FsyncPolicy, atomic_write_json
from .checkpoint import SearchCheckpoint

__all__ = ["JournalWriter", "read_journal",
           "CheckpointGenerations", "SearchJournal", "build_replay",
           "resume_durable"]

_log = logging.getLogger("repro.search.journal")

JOURNAL_NAME = "journal.jsonl"
GENERATIONS_DIR = "generations"
_GEN_RE = re.compile(r"^ckpt-(\d{8})\.json$")


def _canonical(data: dict) -> str:
    """The canonical JSON form records are checksummed over.

    ``repr`` of a float round-trips exactly through json, so dumping a
    re-parsed event reproduces the original bytes — the reader can
    verify the CRC without keeping the raw payload substring around.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _crc(data: dict) -> int:
    return zlib.crc32(_canonical(data).encode("utf-8"))


class JournalWriter(EventSink):
    """Appends checksummed event records to a JSONL write-ahead journal.

    The writer is itself an event sink (``emit`` appends), so the runner
    tees it next to any observability sink: the journal sees *every*
    event, and it is the only on-disk form of the event stream.

    Opening an existing journal *repairs* it first: a torn trailing line
    (the half-written record of a crash mid-append) is truncated away so
    the new run's records never concatenate onto the fragment, and the
    sequence counter continues from the last valid record.  Durability
    policy is the shared :class:`~repro.util.atomicio.FsyncPolicy`:
    every record is flushed (survives process death); ``fsync_every=N``
    additionally forces every Nth record to stable storage (survives
    host death).
    """

    def __init__(self, path, fsync_every: int | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.seq = 0
        if self.path.exists():
            self._repair_tail()
            for event_seq in _scan_seqs(self.path):
                self.seq = max(self.seq, event_seq)
        self._policy = FsyncPolicy(fsync_every)
        self._fh = open(self.path, "a", encoding="utf-8")

    def _repair_tail(self) -> None:
        """Drop a torn trailing line (no final newline) in place."""
        with open(self.path, "r+b") as fh:
            data = fh.read()
            if not data or data.endswith(b"\n"):
                return
            cut = data.rfind(b"\n") + 1     # 0 when the only line is torn
            fh.truncate(cut)

    def append(self, event: SearchEvent) -> int:
        """Durably record one event; returns its sequence number."""
        if self._fh is None:
            raise ValueError("journal is closed")
        ev = event.to_dict()
        self.seq += 1
        line = _canonical({"seq": self.seq, "crc": _crc(ev), "ev": ev})
        self._fh.write(line + "\n")
        self._fh.flush()
        self._policy.tick(self._fh.fileno())
        return self.seq

    def emit(self, event: SearchEvent) -> None:
        self.append(event)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _scan_seqs(path):
    """Yield the sequence numbers of the journal's valid records."""
    for _seq, event in _scan(path, collect_warnings=False)[0]:
        yield _seq


def _scan(path, collect_warnings: bool = True):
    """Parse a journal into ``([(seq, SearchEvent), ...], num_skipped)``.

    A torn trailing line is silently dropped (expected crash residue);
    any other unreadable or CRC-failing record is skipped with a
    warning — a corrupt record costs one replay entry (that evaluation
    re-executes), never the run.
    """
    out: list[tuple[int, SearchEvent]] = []
    skipped = 0
    with open(Path(path), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            ev = rec["ev"]
            if int(rec["crc"]) != _crc(ev):
                raise ValueError("CRC mismatch")
            event = SearchEvent(ev["kind"], ev["time"], ev.get("agent_id"),
                                ev.get("iteration"), ev.get("payload") or {})
            seq = int(rec["seq"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            if i == len(lines) - 1:
                break       # torn trailing record from a crash mid-write
            skipped += 1
            if collect_warnings:
                _log.warning("%s: skipping corrupt journal record at "
                             "line %d", path, i + 1)
            continue
        out.append((seq, event))
    return out, skipped


def read_journal(path) -> EventLog:
    """Read a journal back as an :class:`~repro.events.EventLog` (CRC
    verified per record; torn tail dropped; interior corruption skipped
    and counted in ``num_skipped``)."""
    records, skipped = _scan(path)
    return EventLog([event for _seq, event in records], num_skipped=skipped)


class CheckpointGenerations:
    """A directory of verified checkpoint generations.

    Each :meth:`save` writes ``ckpt-NNNNNNNN.json`` — the checkpoint's
    pinned v1 JSON plus one additive ``integrity`` key carrying the
    payload sha256 and the journal sequence at capture — atomically
    (tmp + fsync + rename).  :meth:`load_latest` walks the generations
    newest-first and returns the first whose digest verifies, logging a
    warning for every generation it has to discard: a crash can tear at
    most the newest file, and bit rot in it costs one generation, not
    the run.
    """

    def __init__(self, directory, keep: int = 5) -> None:
        if keep <= 0:
            raise ValueError("keep must be positive")
        self.dir = Path(directory)
        self.keep = keep

    def paths(self) -> list[Path]:
        """Existing generation files, oldest first."""
        if not self.dir.is_dir():
            return []
        return sorted(p for p in self.dir.iterdir()
                      if _GEN_RE.match(p.name))

    @staticmethod
    def _digest(data: dict) -> str:
        import hashlib
        return hashlib.sha256(_canonical(data).encode("utf-8")).hexdigest()

    def save(self, ckpt: SearchCheckpoint, journal_seq: int) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        existing = self.paths()
        nxt = 1
        if existing:
            nxt = int(_GEN_RE.match(existing[-1].name).group(1)) + 1
        data = ckpt.to_json()
        data["integrity"] = {"sha256": self._digest(data),
                             "journal_seq": int(journal_seq)}
        path = atomic_write_json(self.dir / f"ckpt-{nxt:08d}.json", data)
        for stale in existing[:max(0, len(existing) + 1 - self.keep)]:
            try:
                stale.unlink()
            except OSError:
                pass
        return path

    def load_latest(self) -> tuple[SearchCheckpoint, dict] | None:
        """Newest generation that verifies, as ``(checkpoint,
        integrity)``; None when no generation survives."""
        for path in reversed(self.paths()):
            try:
                data = json.loads(path.read_text())
                integrity = data.pop("integrity")
                if integrity["sha256"] != self._digest(data):
                    raise ValueError("sha256 mismatch")
                return SearchCheckpoint.from_json(data), integrity
            except (OSError, ValueError, KeyError, TypeError) as exc:
                _log.warning("%s: discarding unreadable checkpoint "
                             "generation (%s); falling back to the "
                             "previous one", path, exc)
        return None


class SearchJournal:
    """One run's durability root: ``<dir>/journal.jsonl`` plus
    ``<dir>/generations/``.  A fresh run attaches via
    ``SearchConfig.journal_dir`` (the runner opens it with
    :meth:`fresh` and tees ``writer`` into its event stream);
    :func:`resume_durable` hands an instance to
    :class:`~repro.search.runner.NasSearch` directly."""

    def __init__(self, directory, fsync_every: int | None = None,
                 keep_generations: int = 5) -> None:
        self.dir = Path(directory)
        self.writer = JournalWriter(self.dir / JOURNAL_NAME,
                                    fsync_every=fsync_every)
        self.generations = CheckpointGenerations(
            self.dir / GENERATIONS_DIR, keep=keep_generations)

    @classmethod
    def fresh(cls, directory, fsync_every: int | None = None
              ) -> "SearchJournal":
        """Open ``directory`` for a new run, refusing one that already
        holds a run (a journal record, or any file under
        ``generations/``).  Appending would splice the two runs into one
        journal, and a crash before the new run's first checkpoint would
        let :func:`resume_durable` continue the *old* run's newest
        generation under the new run's reward model."""
        directory = Path(directory)
        journal = directory / JOURNAL_NAME
        gens = directory / GENERATIONS_DIR
        if (journal.exists() and _scan(journal, collect_warnings=False)[0]) \
                or (gens.is_dir() and any(gens.iterdir())):
            raise ValueError(
                f"journal_dir {str(directory)!r} already holds a search "
                f"run; continue it with resume_durable (CLI: "
                f"--resume-durable) or start in an empty directory")
        return cls(directory, fsync_every=fsync_every)

    @property
    def journal_path(self) -> Path:
        return self.writer.path

    def save_checkpoint(self, ckpt: SearchCheckpoint) -> Path:
        """Write a checkpoint generation stamped with the journal's
        current sequence number (every journaled record with a lower
        sequence is already reflected in the checkpoint)."""
        return self.generations.save(ckpt, journal_seq=self.writer.seq)

    def close(self) -> None:
        self.writer.close()


def build_replay(events, checkpoint: SearchCheckpoint | None
                 ) -> dict[int, list[ReplayEval]]:
    """Turn a journal's ``eval-done`` stream into per-agent replay lists.

    Three stream features keep this correct across arbitrarily many
    crash/resume cycles:

    * ``replayed=True`` completions (a resumed run re-serving journaled
      results) are ignored — the original records are already in the
      stream, and counting both would double-feed a later resume;
    * a ``restart`` record carrying ``real_evals`` (in-run agent
      resurrection) truncates that agent's accumulated list — resume
      applies the same record-trimming the resurrection did, so the
      post-restart re-executions that follow in the stream are the
      continuation, not duplicates;
    * the checkpoint's per-agent boundary counters give the number of
      real executions already *inside* the checkpoint
      (``num_submitted - num_cache_hits``; cache hits never emit
      ``eval-done``), which is exactly the stream prefix to drop.
    """
    per_agent: dict[int, list[ReplayEval]] = {}
    for event in events:
        if event.kind == RESTART and "real_evals" in event.payload:
            lst = per_agent.get(event.agent_id)
            if lst is not None:
                del lst[int(event.payload["real_evals"]):]
            continue
        if event.kind != EVAL_DONE:
            continue
        payload = event.payload
        if payload.get("replayed") or "arch" not in payload:
            continue
        arch = Architecture.from_dict(payload["arch"])
        per_agent.setdefault(event.agent_id, []).append(ReplayEval(
            key=exact_key(arch),
            reward=float(payload["reward"]),
            duration=float(payload.get("duration", 0.0)),
            params=int(payload.get("params", 0)),
            timed_out=bool(payload.get("timed_out", False)),
            nonfinite=bool(payload.get("nonfinite", False)),
            failed=bool(payload.get("failed", False)),
            end_time=float(event.time)))
    if checkpoint is not None:
        for agent in checkpoint.agents:
            if agent.done:
                per_agent.pop(agent.agent_id, None)
                continue
            if agent.boundary is None:
                continue
            skip = agent.boundary.num_submitted \
                - agent.boundary.num_cache_hits
            lst = per_agent.get(agent.agent_id)
            if lst is not None:
                del lst[:skip]
    return {aid: lst for aid, lst in per_agent.items() if lst}


def resume_durable(space, reward_model, config, event_sink=None):
    """Rebuild a search from its journal directory, crash-anywhere.

    Returns an un-run :class:`~repro.search.runner.NasSearch` — call
    ``.run()`` on it.  Works from *any* prior state of the directory: a
    fresh (or absent) journal starts a fresh run; a journal with no
    surviving checkpoint replays everything from the start; a journal
    with generations resumes the newest verified one and replays only
    the suffix.  The same call is therefore both the first launch and
    every relaunch — exactly what a crash-looped batch script needs.

    Evaluation replay applies to the real backends (serial / thread /
    process), where re-executing a reward model costs real time; the
    balsam backend's virtual-time evaluations resume from the
    checkpoint alone.
    """
    from .runner import NasSearch       # lazy: runner imports this module

    if config.journal_dir is None:
        raise ValueError("resume_durable requires config.journal_dir")
    journal = SearchJournal(config.journal_dir,
                            fsync_every=config.journal_fsync_every)
    events = read_journal(journal.journal_path)
    loaded = journal.generations.load_latest()
    ckpt = loaded[0] if loaded is not None else None
    replay = None
    if config.backend != "balsam":
        replay = build_replay(events, ckpt)
    return NasSearch(space, reward_model, config, resume_from=ckpt,
                     event_sink=event_sink, journal=journal, replay=replay)
