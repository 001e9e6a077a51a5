"""Checkpoint helpers shared by the golden, journal and resume tests.

* :class:`CaptureLog` keeps every checkpoint generation a journaled
  search saves (its journal directory keeps only the newest five) with
  the records and caches the search held at that capture, and loads
  each one back with the run's journal; :func:`load_generation` loads
  one generation file's bytes.
* :func:`assert_captures_rebuild` checks that every generation a
  :class:`CaptureLog` kept, loaded with its journal, rebuilds what the
  search held at that capture.
* :func:`checkpoint_v1_json` writes the version-1 wire form, which
  embeds the reward records and each agent's cache; the search itself
  writes only version 2, so the v1 golden and the v1-resume tests build
  their files here.
* :func:`checkpoint_fingerprint` is a trajectory fingerprint of a
  checkpoint, for the resume tests.
"""

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.events import CHECKPOINT, RUN, EventSink
from repro.search.checkpoint import SearchCheckpoint
from repro.search.journal import CheckpointGenerations, read_journal
from repro.verify.fingerprint import trajectory_fingerprint


def load_generation(data: bytes, events):
    """A generation file's bytes loaded with ``events`` (the run's
    :func:`read_journal`), as ``(checkpoint, integrity)``; None when it
    does not verify or rebuild."""
    with tempfile.TemporaryDirectory() as directory:
        (Path(directory) / "ckpt-00000001.json").write_bytes(data)
        return CheckpointGenerations(directory).load_latest(events)


@dataclass
class Capture:
    """One capture: the generation it saved, and the records and each
    agent's cache entries the search held then, which loading that
    generation must rebuild."""

    generation: bytes
    records: list
    caches: list


class CaptureLog(EventSink):
    """A test-side sink on a journaled search's ``checkpoint`` events
    (``log.attach(NasSearch(..., event_sink=log))``).

    At each one it copies the generation just saved, and what the search
    held: all its records, a finished agent's whole cache, and a running
    agent's cache up to its boundary's ``cache_len``.
    """

    def __init__(self) -> None:
        self.search = None
        self.captures: list[Capture] = []

    def attach(self, search):
        self.search = search
        return search

    def emit(self, event) -> None:
        if event.kind != CHECKPOINT:
            return
        search = self.search
        caches = []
        for agent_id, ev in enumerate(search.evaluators):
            if agent_id in search._done_agents:
                limit = None
            elif agent_id in search._boundaries:
                limit = search._boundaries[agent_id].cache_len
            else:
                limit = 0               # still in its startup stagger
            caches.append([] if ev.cache is None
                          else ev.cache.snapshot(limit))
        newest = search.journal.generations.paths()[-1]
        self.captures.append(Capture(newest.read_bytes(),
                                     list(search.records), caches))

    def checkpoint(self, i: int) -> SearchCheckpoint:
        """Capture ``i``'s generation, loaded with the run's journal."""
        events = read_journal(self.search.journal.journal_path)
        return load_generation(self.captures[i].generation, events)[0]


def checkpoint_fingerprint(ckpt: SearchCheckpoint) -> str:
    """Determinism fingerprint of the trajectory a checkpoint captured.

    Combines the record multiset with every agent's rolling digest
    (finished agents carry it on the checkpoint, running agents on
    their boundary), as ``SearchResult.fingerprint`` does for a run
    that ended at the same virtual time.
    """
    digests = {}
    for agent in ckpt.agents:
        if agent.done and agent.traj_digest:
            digests[agent.agent_id] = agent.traj_digest
        elif agent.boundary is not None and agent.boundary.traj_digest:
            digests[agent.agent_id] = agent.boundary.traj_digest
    return trajectory_fingerprint(ckpt.records, digests,
                                  method=ckpt.method, seed=ckpt.seed)


def checkpoint_v1_json(ckpt) -> dict:
    """``ckpt`` as a version-1 checkpoint: version 2 plus ``records``
    and each agent's ``cache`` rows (``[[space, choices], [reward,
    duration, params, timed_out]]``)."""
    data = ckpt.to_json()
    data["version"] = 1
    data["records"] = [r.to_json() for r in ckpt.records]
    for wire, agent in zip(data["agents"], ckpt.agents):
        wire["cache"] = [[[key[0], list(key[1])],
                          [res.reward, res.duration, res.params,
                           res.timed_out]]
                         for key, res in agent.cache_entries]
    return json.loads(json.dumps(data))


def records_json(records) -> list[str]:
    """Records as an ordered list of canonical dumps (NaN-safe)."""
    return [json.dumps(r.to_json(), sort_keys=True) for r in records]


def watermarks(events) -> list[int]:
    """Journal watermark of each checkpoint the last run segment saved:
    the sequence number just before its ``checkpoint`` event."""
    last_run = max(i for i, e in enumerate(events) if e.kind == RUN)
    return [seq - 1 for e, seq in zip(events[last_run:],
                                      events.seqs[last_run:])
            if e.kind == CHECKPOINT]


def assert_captures_rebuild(log: CaptureLog, events) -> int:
    """Load each generation ``log`` kept with ``events`` (the journal of
    the run segment it watched); the load must equal the capture —
    records in order, every agent's cache entries in order — and the
    generation's own state.  Returns how many captures were checked."""
    marks = watermarks(events)
    assert len(marks) == len(log.captures)
    for capture, mark in zip(log.captures, marks):
        loaded, integrity = load_generation(capture.generation, events)
        assert integrity["journal_seq"] == mark
        assert records_json(loaded.records) == \
            records_json(capture.records)
        assert [a.cache_entries for a in loaded.agents] == capture.caches
        saved = json.loads(capture.generation)
        del saved["integrity"]
        assert json.dumps(loaded.to_json(), sort_keys=True) == \
            json.dumps(saved, sort_keys=True)
    return len(marks)
