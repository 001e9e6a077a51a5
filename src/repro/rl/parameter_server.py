"""Parameter server for multi-agent policy learning (§3.2, Fig. 2).

Agents compute local PPO update directions and exchange them through a
central parameter server:

* **synchronous (A2C)** — the PS waits for all active agents' updates,
  averages them, and releases every agent with the same averaged update.
  All agents start from identical parameters and apply identical
  averages, so their policies stay bit-identical — at the cost of a
  barrier every iteration (the node-idling the paper blames for A2C's
  slower learning and sawtooth utilization).
* **asynchronous (A3C)** — the PS immediately averages the incoming
  update with the most recently received ones (a bounded staleness
  window) and returns; no agent ever waits for another.  Policies drift
  apart but wall-clock progress is continuous.

The server is simulation-aware: synchronous pushes return an event of
the discrete-event kernel that fires when the barrier releases.

Delta hygiene (``docs/robustness.md``): an optional
:class:`~repro.health.recovery.DeltaSanitizer` screens every incoming
update — non-finite or norm-outlier deltas are *rejected* (counted, and
excluded from the averages other agents receive) instead of poisoning
the shared exchange.  With no sanitizer configured every push path is
byte-for-byte the unguarded server.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..hpc.sim import Event, Simulator

__all__ = ["ParameterServer"]


class ParameterServer:
    def __init__(self, sim: Simulator, num_agents: int, mode: str = "async",
                 staleness_window: int | None = None,
                 latency: float = 0.1, service_time: float = 0.0,
                 sanitizer=None) -> None:
        if mode not in ("sync", "async"):
            raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")
        if num_agents <= 0:
            raise ValueError("num_agents must be positive")
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        self.sim = sim
        self.mode = mode
        self.num_agents = num_agents
        self.active_agents = num_agents
        self.latency = latency
        self.service_time = service_time
        self.sanitizer = sanitizer
        self.num_rounds = 0
        self.num_pushes = 0
        # async state: recent updates (default window: half the agents,
        # "a set of recently received gradients")
        window = staleness_window or max(1, num_agents // 2)
        self._recent: deque[np.ndarray] = deque(maxlen=window)
        # sync state; pushes are tagged with their agent id (when given)
        # so checkpoints can attribute in-flight barrier pushes and a
        # resurrected agent can withdraw its stale push
        self._pending: list[np.ndarray] = []
        self._pending_agents: list[int | None] = []
        self._pending_ok: list[bool] = []
        self._waiters: list[Event] = []
        self.num_failed_agents = 0
        self.num_resurrections = 0
        # timed-service state: the PS node handles one push at a time;
        # _served_until is the finish time of the last push applied
        # (the queue clock a checkpoint carries), _busy_until also
        # counts the pushes still queued
        self._busy_until = 0.0
        self._served_until = 0.0

    # -- delta hygiene ----------------------------------------------------
    def _sanitize(self, delta: np.ndarray) -> str | None:
        """Screen one incoming delta; returns the rejection reason or
        ``None`` (always ``None`` with no sanitizer configured)."""
        if self.sanitizer is None:
            return None
        return self.sanitizer.check(delta)

    @property
    def num_rejected_deltas(self) -> int:
        return 0 if self.sanitizer is None else self.sanitizer.num_rejected

    # -- async (A3C) ------------------------------------------------------
    def push_async(self, delta: np.ndarray) -> np.ndarray:
        """Record an update; return the average of recent updates.

        A rejected delta is not recorded: the caller receives the
        average of the surviving recent updates (or a zero vector if
        none exist) so its local poisoned step is replaced rather than
        amplified.
        """
        if self.mode != "async":
            raise RuntimeError("push_async on a synchronous server")
        self.num_pushes += 1
        delta = np.asarray(delta, dtype=np.float64)
        if self._sanitize(delta) is not None:
            if self._recent:
                return np.mean(self._recent, axis=0)
            return np.zeros_like(delta)
        self._recent.append(delta)
        return np.mean(self._recent, axis=0)

    def push_async_timed(self, delta: np.ndarray):
        """Asynchronous push through a single-server queue; returns a
        generator for the pushing process (``avg = yield from
        ps.push_async_timed(delta)``).

        The PS node handles one push at a time for ``service_time``
        simulated seconds (proportional, in reality, to the parameter
        vector it must average).  The push is queued at once; when its
        service completes, the pushing process wakes, and the push is
        averaged in — inside that same wakeup, so a checkpoint or a
        preemption never sees a served push whose agent has not moved
        past it.  With many agents, a single server queues — the §7
        scalability bottleneck that sharding the vector k ways divides
        by serving each push in ``service_time / k``.
        """
        if self.mode != "async":
            raise RuntimeError("push_async_timed on a synchronous server")
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + self.service_time
        return self._serve(
            self.sim.timeout_event(self._busy_until - self.sim.now), delta)

    def _serve(self, served: Event, delta: np.ndarray):
        yield served
        self._served_until = self.sim.now
        return self.push_async(delta)

    # -- sync (A2C) ---------------------------------------------------------
    def push_sync(self, delta: np.ndarray, agent_id: int | None = None
                  ) -> Event:
        """Submit an update; the returned event fires with the round's
        average once every active agent has pushed.

        A rejected delta still *counts toward the barrier* (the pushing
        agent receives the round average like everyone else) but is
        excluded from the average itself — barrier liveness and delta
        hygiene are independent concerns.
        """
        if self.mode != "sync":
            raise RuntimeError("push_sync on an asynchronous server")
        self.num_pushes += 1
        delta = np.asarray(delta, dtype=np.float64)
        ev = self.sim.event()
        self._pending.append(delta)
        self._pending_agents.append(agent_id)
        self._pending_ok.append(self._sanitize(delta) is None)
        self._waiters.append(ev)
        self._maybe_release()
        return ev

    def deregister(self, failed: bool = False) -> None:
        """An agent leaves (converged, stopped, or crashed); shrink the
        barrier.  In sync mode the remaining agents' barrier re-checks
        immediately, so an agent that dies mid-round — before or after
        its own push — can never deadlock the others."""
        self.active_agents -= 1
        if self.active_agents < 0:
            raise RuntimeError("more deregistrations than agents")
        if failed:
            self.num_failed_agents += 1
        if self.mode == "sync":
            self._maybe_release()

    def register(self, agent_id: int | None = None) -> None:
        """A resurrected agent rejoins the exchange (see
        ``NasSearch``'s restart path); grows the barrier back.

        Barrier safety: any pending push or waiter still tagged with
        ``agent_id`` belongs to the agent's *crashed* attempt — its
        replayed iteration will push again — so it is withdrawn first.
        Growing the barrier can only raise the release threshold, and
        withdrawal only shrinks the pending set, so re-registration can
        never release (let alone double-release) a round by itself.
        """
        if self.active_agents >= self.num_agents:
            raise RuntimeError("more registrations than agents")
        if agent_id is not None and self.mode == "sync":
            for i in reversed(range(len(self._pending_agents))):
                if self._pending_agents[i] == agent_id:
                    self._pending.pop(i)
                    self._pending_agents.pop(i)
                    self._pending_ok.pop(i)
                    self._waiters.pop(i)
        self.active_agents += 1
        self.num_resurrections += 1

    def _maybe_release(self) -> None:
        if self._waiters and len(self._pending) >= max(1, self.active_agents):
            good = [d for d, ok in zip(self._pending, self._pending_ok) if ok]
            if good:
                avg = np.mean(good, axis=0)
            else:       # every push this round was rejected: no movement
                avg = np.zeros_like(self._pending[0])
            waiters, self._waiters = self._waiters, []
            self._pending = []
            self._pending_agents = []
            self._pending_ok = []
            self.num_rounds += 1
            delay = self.latency
            for ev in waiters:
                self.sim._schedule(delay, lambda _v, e=ev: e.succeed(avg), None)

    # -- checkpoint support ------------------------------------------------
    def export_state(self) -> dict:
        """Serializable snapshot for search checkpoints.

        Pushes of the current (unreleased) sync round are *excluded*:
        they belong to in-flight agent iterations that a resumed search
        replays from their iteration boundaries, so they will be pushed
        again.
        """
        state = {
            "mode": self.mode,
            "active_agents": self.active_agents,
            "num_rounds": self.num_rounds,
            "num_pushes": self.num_pushes - len(self._pending),
            "num_failed_agents": self.num_failed_agents,
            "recent": [v.tolist() for v in self._recent],
        }
        # the queue clock of a timed server: a replayed push that first
        # queued behind an already-applied push must queue behind it
        # again (absent at service time 0, so those checkpoints keep
        # their bytes)
        if self.service_time > 0:
            state["served_until"] = self._served_until
        # Health-layer counters ride along only when the layer is in
        # play, so a guard-off checkpoint keeps the pinned schemas
        # (tests/test_search_checkpoint_golden.py) byte-for-byte.
        if self.sanitizer is not None or self.num_resurrections:
            health: dict = {"num_resurrections": self.num_resurrections}
            if self.sanitizer is not None:
                health["sanitizer"] = self.sanitizer.export_state()
            state["health"] = health
        return state

    def restore_state(self, state: dict) -> None:
        if state["mode"] != self.mode:
            raise ValueError(
                f"checkpoint is for a {state['mode']!r} server, "
                f"this one is {self.mode!r}")
        self.active_agents = int(state["active_agents"])
        self.num_rounds = int(state["num_rounds"])
        self.num_pushes = int(state["num_pushes"])
        self.num_failed_agents = int(state.get("num_failed_agents", 0))
        self._recent.clear()
        for vec in state["recent"]:
            self._recent.append(np.asarray(vec, dtype=np.float64))
        self._served_until = float(state.get("served_until", 0.0))
        self._busy_until = self._served_until
        # older generations also carry "num_stale_evicted" and
        # "recent_times" here; nothing reads them any more
        health = state.get("health", {})
        self.num_resurrections = int(health.get("num_resurrections", 0))
        if self.sanitizer is not None and "sanitizer" in health:
            self.sanitizer.restore_state(health["sanitizer"])
        self._pending = []
        self._pending_agents = []
        self._pending_ok = []
        self._waiters = []
