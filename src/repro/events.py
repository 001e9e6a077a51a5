"""Structured search-event stream.

Every layer of the search runtime — the evaluator, the exchange
strategies, the lifecycle hooks, and the runner itself — emits typed
:class:`SearchEvent` records to a pluggable sink.  The stream is the
observability substrate for tracing/metrics work, and it is how tests
assert cross-layer ordering (submit → eval-done → push → barrier)
without reaching into private runner state.

Emission is strictly passive: sinks observe, they never feed back into
the search, so attaching (or detaching) a sink cannot perturb a run's
determinism fingerprint.  With no sink configured nothing is even
constructed — :func:`emit` is a no-op on ``sink=None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SUBMIT", "BATCH_STATS", "EVAL_DONE", "CACHE_HIT", "BATCH_RECORDED",
    "PUSH", "BARRIER", "ROLLBACK", "RESTART", "CHECKPOINT", "CRASH",
    "AGENT_DONE", "WORKER_SPAWN", "WORKER_CRASH", "WORKER_RESPAWN",
    "WORKER_TIMEOUT", "QUARANTINE", "PREEMPT", "RUN", "RUN_END",
    "EVENT_KINDS", "SearchEvent", "EventSink", "NullSink", "RecordingSink",
    "CallbackSink", "TeeSink", "EventLog", "emit",
]

#: a run began or resumed: its setup, and the per-agent counts of the
#: ``records`` and ``caches`` entries it starts from (``caches`` is None
#: when the search keeps no evaluation cache)
RUN = "run"
#: the run ended; ``records`` holds each agent's final record count
RUN_END = "run-end"
#: a batch of architectures entered the evaluator
SUBMIT = "submit"
#: the evaluator gathered a batch against the shared plan cache; payload
#: carries the batch size, distinct-architecture count, and the plan
#: hit / miss / isomorphism-hit deltas of the gather
BATCH_STATS = "batch-stats"
#: one evaluation finished (real or failed — see ``payload["failed"]``);
#: payload: reward, failed, arch, duration, params, timed_out, and
#: ``replayed`` on a completion a resumed run re-served.  Older
#: journals also carry ``nonfinite``, which readers ignore
EVAL_DONE = "eval-done"
#: the agent-local cache answered an architecture (eval-done's fields)
CACHE_HIT = "cache-hit"
#: an agent appended its finished batch's records, in row order; row i
#: is the agent's ``payload["order"][i]``-th ``eval-done``/``cache-hit``
#: since its previous ``batch-recorded`` (no ``order``: the i-th)
BATCH_RECORDED = "batch-recorded"
#: an agent handed its delta to the parameter server
PUSH = "push"
#: a synchronous exchange round released its barrier
BARRIER = "barrier"
#: a health guard rolled an agent's policy back to its last snapshot
ROLLBACK = "rollback"
#: a crashed agent restarted from its boundary's ``num_records``
RESTART = "restart"
#: the search captured a resumable checkpoint
CHECKPOINT = "checkpoint"
#: an agent died permanently (restarts exhausted or none configured)
CRASH = "crash"
#: an agent finished (converged, wall-time, or post-crash accounting)
AGENT_DONE = "agent-done"
#: a process-pool worker was started (the pool fills at its first job)
WORKER_SPAWN = "worker-spawn"
#: a worker died unexpectedly (crash, external kill, lost heartbeat)
WORKER_CRASH = "worker-crash"
#: a replacement worker was spawned after a death (restart budget spent)
WORKER_RESPAWN = "worker-respawn"
#: a worker was killed because its job exceeded the wall-clock deadline
WORKER_TIMEOUT = "worker-timeout"
#: an architecture was quarantined after killing too many workers
QUARANTINE = "quarantine"
#: the search was preempted (SIGTERM/SIGINT) and stopped at a
#: checkpointable boundary
PREEMPT = "preempt"

EVENT_KINDS = (SUBMIT, BATCH_STATS, EVAL_DONE, CACHE_HIT, BATCH_RECORDED,
               PUSH, BARRIER, ROLLBACK, RESTART, CHECKPOINT, CRASH,
               AGENT_DONE, WORKER_SPAWN, WORKER_CRASH, WORKER_RESPAWN,
               WORKER_TIMEOUT, QUARANTINE, PREEMPT, RUN, RUN_END)


@dataclass(frozen=True)
class SearchEvent:
    """One timestamped record of the search-event stream.

    ``time`` is the emitting layer's clock — virtual seconds for the
    simulated Balsam stack, wall seconds for serial/thread backends.
    ``payload`` carries kind-specific detail (reward, round number,
    anomaly kind, ...); it is deliberately a plain dict so new layers
    can annotate events without schema churn.
    """

    kind: str
    time: float
    agent_id: int | None = None
    iteration: int | None = None
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "time": self.time,
                "agent_id": self.agent_id, "iteration": self.iteration,
                "payload": dict(self.payload)}


class EventSink:
    """Receiver contract: ``emit`` one event; ``close`` when done."""

    def emit(self, event: SearchEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class NullSink(EventSink):
    """Discards everything (explicit stand-in for "no sink")."""

    def emit(self, event: SearchEvent) -> None:
        pass


class RecordingSink(EventSink):
    """Accumulates events in order — the test-facing sink."""

    def __init__(self) -> None:
        self.events: list[SearchEvent] = []

    def emit(self, event: SearchEvent) -> None:
        self.events.append(event)

    def of_kind(self, *kinds: str) -> list[SearchEvent]:
        return [e for e in self.events if e.kind in kinds]

    def kinds(self) -> list[str]:
        return [e.kind for e in self.events]

    def __len__(self) -> int:
        return len(self.events)


class CallbackSink(EventSink):
    """Adapts a plain callable into a sink."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def emit(self, event: SearchEvent) -> None:
        self.fn(event)


class TeeSink(EventSink):
    """Fans every event out to several sinks."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = [s for s in sinks if s is not None]

    def emit(self, event: SearchEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class EventLog(list):
    """A list of :class:`SearchEvent` records that also reports how many
    unreadable records the reader had to skip (``num_skipped``) and each
    event's journal sequence number (``seqs``, parallel to the list;
    1, 2, ... by default, a stream with no gap) — what
    :func:`repro.search.journal.read_journal` returns for the stream's
    only on-disk form, the write-ahead journal."""

    def __init__(self, events=(), num_skipped: int = 0,
                 seqs=None) -> None:
        super().__init__(events)
        self.num_skipped = num_skipped
        self.seqs: list[int] = (list(range(1, len(self) + 1))
                                if seqs is None else list(seqs))


def emit(sink: EventSink | None, kind: str, time: float,
         agent_id: int | None = None, iteration: int | None = None,
         **payload) -> None:
    """Emit one event, or do nothing at all when ``sink`` is None.

    The event object is only constructed when a sink is attached, so
    un-observed runs pay nothing on the hot path.
    """
    if sink is not None:
        sink.emit(SearchEvent(kind, time, agent_id, iteration, payload))
