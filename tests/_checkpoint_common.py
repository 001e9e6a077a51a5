"""Checkpoint helpers shared by the golden, journal and resume tests.

* :func:`checkpoint_v1_json` writes the version-1 wire form, which
  embeds the reward records and each agent's cache; the search itself
  writes only version 2, so the v1 golden and the v1-resume tests build
  their files here.
* :func:`assert_generations_rebuild` checks that every checkpoint a
  journaled search captured in memory, saved as a version-2 generation
  and loaded with its journal, equals the capture.
* :func:`round_trip` and :func:`checkpoint_fingerprint` stand in for a
  save plus a journal-backed load, and for a trajectory fingerprint of
  a checkpoint, in the resume tests.
"""

import json

from repro.events import CHECKPOINT, RUN
from repro.search.checkpoint import SearchCheckpoint
from repro.search.journal import CheckpointGenerations
from repro.verify.fingerprint import trajectory_fingerprint


def round_trip(ckpt: SearchCheckpoint) -> SearchCheckpoint:
    """JSON-encode and decode what a generation stores, carrying the
    records and cache entries over unchanged — what a save and a
    journal-backed load do, without disk or journal."""
    back = SearchCheckpoint.from_json(json.loads(json.dumps(ckpt.to_json())))
    back.records = list(ckpt.records)
    for agent, mine in zip(back.agents, ckpt.agents):
        agent.cache_entries = list(mine.cache_entries)
    return back


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


def assert_generations_rebuild(search, events, directory) -> int:
    """Save each of ``search.checkpoints`` as a version-2 generation at
    its watermark under ``directory`` and load it with ``events``; the
    load must equal the capture — records in order, every agent's cache
    entries in order, boundaries and the rest of the state.  Returns
    how many checkpoints were checked."""
    marks = watermarks(events)
    assert len(marks) == len(search.checkpoints)
    gens = CheckpointGenerations(directory)
    for ckpt, mark in zip(search.checkpoints, marks):
        gens.save(ckpt, journal_seq=mark)
        loaded, integrity = gens.load_latest(events)
        assert integrity["journal_seq"] == mark
        assert records_json(loaded.records) == records_json(ckpt.records)
        assert [a.cache_entries for a in loaded.agents] == \
            [a.cache_entries for a in ckpt.agents]
        assert json.dumps(loaded.to_json(), sort_keys=True) == \
            json.dumps(ckpt.to_json(), sort_keys=True)
        assert checkpoint_fingerprint(loaded) == checkpoint_fingerprint(ckpt)
    return len(marks)
