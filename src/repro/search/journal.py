"""Write-ahead search journal + checkpoint generations (crash-anywhere
durability).

Record-clock checkpoints bound the re-execution window of a killed
search to the work since the last capture.  This module shrinks it to
(at most) one *evaluation*: every :class:`~repro.events.SearchEvent`
the search emits is appended — checksummed, before the search acts on
it further — to a JSONL write-ahead journal, and checkpoints are
written as verified *generations* next to it.  Resume then becomes:

1. read the journal — tolerating a torn trailing record and skipping
   interior corruption;
2. load the newest checkpoint generation whose sha256 verifies and
   whose journal prefix is intact (falling back generation by
   generation when the newest is torn or corrupt), rebuilding its
   reward records and evaluation caches from that prefix;
3. turn the journal's ``eval-done`` suffix into per-agent
   :class:`~repro.evaluator.base.ReplayEval` queues;
4. restart the search from the checkpoint; when the resumed agents
   deterministically re-submit the architectures the dead run had
   already paid for, the evaluators answer from the replay queues instead
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
(virtual-time) searches journal, checkpoint and rebuild like every
other backend, but skip evaluation replay: their evaluations are
simulated jobs whose cost is virtual anyway, and the rebuilt checkpoint
alone already resumes them deterministically.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import zlib
from itertools import islice
from pathlib import Path

from ..evaluator.base import ReplayEval
from ..events import (BATCH_RECORDED, CACHE_HIT, EVAL_DONE, RESTART, RUN,
                      EventLog, EventSink, SearchEvent)
from ..nas.arch import Architecture
from ..rewards.base import EvalResult
from ..util.atomicio import FsyncPolicy, atomic_write_bytes
from .base import RewardRecord
from .checkpoint import SearchCheckpoint, trim_to_boundaries

__all__ = ["JournalWriter", "read_journal", "read_records",
           "CheckpointGenerations", "SearchJournal", "build_replay",
           "resume_durable"]

_log = logging.getLogger("repro.search.journal")

JOURNAL_NAME = "journal.jsonl"
GENERATIONS_DIR = "generations"
_GEN_RE = re.compile(r"^ckpt-(\d{8})\.json$")
#: bytes read per step when scanning a journal back from its end
_TAIL_BLOCK = 1 << 16
#: checkpoint generations a directory keeps; each save prunes older ones
_KEEP_GENERATIONS = 5


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
    sequence counter continues from the last valid record, parsed back
    from the end.  Durability
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
            self.seq = _last_seq(self.path)
        self._policy = FsyncPolicy(fsync_every)
        self._fh = open(self.path, "a", encoding="utf-8")

    def _repair_tail(self) -> None:
        """Drop a torn trailing line (no final newline) in place.  The
        last newline is found reading blocks back from the end: one
        block unless the torn line is longer than a block."""
        with open(self.path, "r+b") as fh:
            end = fh.seek(0, os.SEEK_END)
            cut = 0                     # just past the last newline
            for pos, block in _tail_blocks(fh):
                cut = pos + block.rfind(b"\n") + 1
                if cut > pos:
                    break
            if cut < end:
                fh.truncate(cut)        # 0 when the only line is torn

    def append(self, event: SearchEvent) -> int:
        """Durably record one event; returns its sequence number."""
        if self._fh is None:
            raise ValueError("journal is closed")
        ev = event.to_dict()
        self.seq += 1
        body = _canonical(ev)
        crc = zlib.crc32(body.encode("utf-8"))
        # the bytes of _canonical({"seq": self.seq, "crc": crc, "ev": ev})
        self._fh.write(f'{{"crc":{crc},"ev":{body},"seq":{self.seq}}}\n')
        self._fh.flush()
        self._policy.tick(self._fh.fileno())
        return self.seq

    def emit(self, event: SearchEvent) -> None:
        self.append(event)

    def sync(self) -> None:
        """Force every appended record to stable storage."""
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _parse(line) -> tuple[int, SearchEvent]:
    """One journal line as ``(seq, event)``; ValueError (or a subclass)
    when it is unreadable or fails its CRC."""
    try:
        rec = json.loads(line)
        ev = rec["ev"]
        if int(rec["crc"]) != _crc(ev):
            raise ValueError("CRC mismatch")
        return int(rec["seq"]), SearchEvent(
            ev["kind"], ev["time"], ev.get("agent_id"), ev.get("iteration"),
            ev.get("payload") or {})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed journal record: {exc}") from None


def _tail_blocks(fh):
    """``(offset, bytes)`` of a binary file's blocks, last block first."""
    pos = fh.seek(0, os.SEEK_END)
    while pos > 0:
        step = min(_TAIL_BLOCK, pos)
        pos -= step
        fh.seek(pos)
        yield pos, fh.read(step)


def _last_seq(path) -> int:
    """Sequence number of the journal's last valid record (0 for none).

    Sequence numbers only increase, so this reads blocks back from the
    end and parses lines until one is valid — a torn or corrupt tail
    costs a line or two, never a scan of the whole journal.
    """
    with open(path, "rb") as fh:
        rest = b""                  # the unread head of the lowest line
        for pos, block in _tail_blocks(fh):
            lines = (block + rest).split(b"\n")
            rest = lines.pop(0) if pos > 0 else b""
            for line in reversed(lines):
                try:
                    return _parse(line)[0]
                except ValueError:
                    continue
    return 0


def read_journal(path) -> EventLog:
    """Read a journal back as an :class:`~repro.events.EventLog`, CRC
    verified per record.  A torn trailing line is silently dropped
    (expected crash residue); any other unreadable or CRC-failing record
    is skipped with a warning and counted in ``num_skipped``, and
    ``seqs`` shows the gap — a corrupt record costs one replay entry
    (that evaluation re-executes), never the run."""
    events, seqs, skipped = [], [], 0
    with open(Path(path), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            seq, event = _parse(line)
        except ValueError:
            if i == len(lines) - 1:
                break       # torn trailing record from a crash mid-write
            skipped += 1
            _log.warning("%s: skipping corrupt journal record at line %d",
                         path, i + 1)
            continue
        events.append(event)
        seqs.append(seq)
    return EventLog(events, num_skipped=skipped, seqs=seqs)


def read_records(events) -> tuple[list[RewardRecord], dict]:
    """Rebuild a run's reward records, in the order the search appended
    them, with the first ``run`` event's metadata.  An agent's
    ``eval-done`` (replays too) and ``cache-hit`` events become its
    records at its next ``batch-recorded`` event, in the row order that
    event gives; each ``run`` and ``restart`` then cuts every agent it
    names to the record count it carries.  A stream with no ``run``
    before its first record raises ValueError, and so does one written
    before ``batch-recorded`` events existed."""
    records, _caches, metadata = _fold(events, caches=False)
    return records, metadata


def _fold(events, caches: bool):
    """One pass over an event stream: ``(records, per-agent cache
    stores, metadata)``; stores are built only when ``caches`` is set.
    Each store maps an architecture key to its result in insertion
    order, as the agent's :class:`~repro.evaluator.cache.EvalCache`
    does: one entry per successful ``eval-done``, every ``run`` event
    cutting it to the length that run starts from (a run whose
    ``caches`` is None keeps no cache at all)."""
    records, stores, metadata, cached = [], {}, None, False
    pending: dict[int, list[SearchEvent]] = {}  # completions not recorded
    for event in events:
        kind, payload, agent = event.kind, event.payload, event.agent_id
        if kind == EVAL_DONE or kind == CACHE_HIT:
            if metadata is None:
                break                               # refused below
            pending.setdefault(agent, []).append(event)
            if cached and kind == EVAL_DONE and not payload["failed"]:
                arch = payload["arch"]
                stores.setdefault(agent, {})[
                    (arch["space"], tuple(arch["choices"]))] = EvalResult(
                        float(payload["reward"]), float(payload["duration"]),
                        int(payload["params"]), bool(payload["timed_out"]))
        elif kind == BATCH_RECORDED:
            # a completion lost to a skipped corrupt record drops a row
            done = pending.pop(agent, [])
            records.extend(RewardRecord.from_json(dict(
                done[j].payload, time=done[j].time, agent_id=agent,
                cached=done[j].kind == CACHE_HIT))
                for j in payload.get("order", range(len(done)))
                if j < len(done))
        elif kind == RESTART:
            if metadata is None:
                break
            records = trim_to_boundaries(
                records, {agent: payload["num_records"]})
        elif kind == RUN:
            if "caches" not in payload:
                raise ValueError("the journal is older than "
                                 "'batch-recorded' events")
            metadata = metadata or {k: v for k, v in payload.items()
                                    if k not in ("records", "caches")}
            pending.clear()             # a run starts with fresh evaluators
            records = trim_to_boundaries(records,
                                         dict(enumerate(payload["records"])))
            cached = caches and payload["caches"] is not None
            stores = {a: dict(islice(stores.get(a, {}).items(), n))
                      for a, n in enumerate(payload["caches"] or ())}
    if metadata is None:
        raise ValueError("no 'run' event before the first record: the "
                         "journal is empty or older than run events")
    return records, stores, metadata


def _rebuild(ckpt: SearchCheckpoint, events: EventLog, watermark: int
             ) -> None:
    """Fill a version-2 checkpoint's records and cache entries from the
    journal prefix up to its ``watermark`` sequence number: the records
    as they stood, a finished agent's whole cache, and a running one's
    first ``cache_len`` entries.  A prefix with a gap (a skipped corrupt
    record, or a journal that ends early) raises ValueError."""
    seqs = events.seqs
    if watermark > len(seqs) or (watermark and
                                 seqs[watermark - 1] != watermark):
        raise ValueError(f"the journal's records up to seq {watermark} "
                         f"are not all readable")
    ckpt.records, stores, _metadata = _fold(islice(events, watermark),
                                            caches=True)
    for agent in ckpt.agents:
        entries = list(stores.get(agent.agent_id, {}).items())
        if agent.done:
            agent.cache_entries = entries
        elif agent.boundary is not None:
            agent.cache_entries = entries[:agent.boundary.cache_len]


class CheckpointGenerations:
    """A directory of verified checkpoint generations.

    Each :meth:`save` writes ``ckpt-NNNNNNNN.json`` — the checkpoint's
    pinned version-2 JSON in canonical form (sorted keys, compact
    separators) plus one additive ``integrity`` key carrying the payload
    sha256 and the journal sequence at capture, the watermark —
    atomically (tmp + fsync + rename).  Version 2 leaves the reward
    records and the evaluation caches out, so a generation's size does
    not grow with the run: :meth:`load_latest` rebuilds them from the
    journal prefix up to the watermark (a version-1 generation, which
    embeds them, loads as it is).  It walks the generations newest-first
    and returns the first that verifies and rebuilds, logging a warning
    for every generation it has to discard: a crash can tear at most the
    newest file, and bit rot in it costs one generation, not the run.
    It digests the canonical dump of what it parsed, so a generation in
    any JSON layout (such as the default layout earlier versions wrote)
    loads alike.
    """

    def __init__(self, directory) -> None:
        self.dir = Path(directory)

    def paths(self) -> list[Path]:
        """Existing generation files, oldest first."""
        if not self.dir.is_dir():
            return []
        return sorted(p for p in self.dir.iterdir()
                      if _GEN_RE.match(p.name))

    @staticmethod
    def _digest(data: dict) -> str:
        return hashlib.sha256(_canonical(data).encode("utf-8")).hexdigest()

    def save(self, ckpt: SearchCheckpoint, journal_seq: int) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        existing = self.paths()
        nxt = 1
        if existing:
            nxt = int(_GEN_RE.match(existing[-1].name).group(1)) + 1
        # the canonical payload bytes, hashed and written from one buffer,
        # with ``integrity`` appended as the last key
        body = _canonical(ckpt.to_json()).encode("utf-8")
        integrity = {"sha256": hashlib.sha256(body).hexdigest(),
                     "journal_seq": int(journal_seq)}
        tail = f',"integrity":{_canonical(integrity)}}}'.encode("utf-8")
        path = atomic_write_bytes(self.dir / f"ckpt-{nxt:08d}.json",
                                  memoryview(body)[:-1], tail)
        for stale in existing[:max(0, len(existing) + 1
                                   - _KEEP_GENERATIONS)]:
            try:
                stale.unlink()
            except OSError:
                pass
        return path

    def load_latest(self, events: EventLog
                    ) -> tuple[SearchCheckpoint, dict] | None:
        """Newest generation that verifies, as ``(checkpoint,
        integrity)``, its records and caches rebuilt from ``events``
        (:func:`read_journal` of the run's journal); None when no
        generation survives."""
        for path in reversed(self.paths()):
            try:
                data = json.loads(path.read_text())
                integrity = data.pop("integrity")
                if integrity["sha256"] != self._digest(data):
                    raise ValueError("sha256 mismatch")
                ckpt = SearchCheckpoint.from_json(data)
                if data["version"] != 1:    # only version 1 embeds them
                    _rebuild(ckpt, events, int(integrity["journal_seq"]))
                return ckpt, integrity
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

    def __init__(self, directory, fsync_every: int | None = None) -> None:
        self.dir = Path(directory)
        self.writer = JournalWriter(self.dir / JOURNAL_NAME,
                                    fsync_every=fsync_every)
        self.generations = CheckpointGenerations(self.dir / GENERATIONS_DIR)

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
        if (journal.exists() and _last_seq(journal)) \
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
        current sequence number (every journaled record up to it is
        already reflected in the checkpoint, and loading rebuilds the
        records and caches from exactly those).  The journal is forced
        to stable storage first, so whatever ``fsync_every`` says, a
        generation never names records a host crash could lose."""
        self.writer.sync()
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
            key=arch.key,
            reward=float(payload["reward"]),
            duration=float(payload.get("duration", 0.0)),
            params=int(payload.get("params", 0)),
            timed_out=bool(payload.get("timed_out", False)),
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

    The journal is read once: the same events rebuild the checkpoint's
    records and caches and build the replay.  Evaluation replay applies
    to the real backends (serial / thread / process), where re-executing
    a reward model costs real time; the balsam backend's virtual-time
    evaluations resume from the rebuilt checkpoint alone.
    """
    from .runner import NasSearch       # lazy: runner imports this module

    if config.journal_dir is None:
        raise ValueError("resume_durable requires config.journal_dir")
    journal = SearchJournal(config.journal_dir,
                            fsync_every=config.journal_fsync_every)
    events = read_journal(journal.journal_path)
    loaded = journal.generations.load_latest(events)
    ckpt = loaded[0] if loaded is not None else None
    replay = None
    if config.backend != "balsam":
        replay = build_replay(events, ckpt)
    return NasSearch(space, reward_model, config, resume_from=ckpt,
                     event_sink=event_sink, journal=journal, replay=replay)
