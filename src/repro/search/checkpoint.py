"""Search checkpoint / resume (§4's "restart failed tasks", writ large).

A 6-hour, 1,024-node search that dies at hour 5 must not restart from
scratch.  This module serializes everything the search loop needs to
continue a run deterministically:

* per-agent **iteration boundaries** — the virtual time at which the
  agent last started an iteration, its policy's flat parameter vector
  (PR 1's ``get_flat``), its RNG bit-generator state, its convergence
  counter, and how much of its evaluation cache existed at that point;
* the **global reward records** of all completed iterations;
* the **parameter-server state** (recent-update window, round/push
  counters, active-agent count), excluding pushes from in-flight
  iterations;
* which agents had already finished (converged, stopped, or crashed).

On disk a checkpoint exists only as a verified generation under a
journal directory (:mod:`repro.search.journal`).  Resume —
``NasSearch(..., resume_from=ckpt)``, which
:func:`~repro.search.journal.resume_durable` calls — rebuilds a fresh
:class:`~repro.search.runner.NasSearch`, applies the checkpoint, and
restarts each unfinished agent *at its own boundary time* with its
restored state.  The agent re-samples the same architectures with its
restored RNG, re-submits its in-flight batch, and proceeds — re-doing
at most one iteration of work per agent, exactly like Balsam re-running
the tasks of a killed pilot job.

Determinism: with the default instant parameter exchange
(``ps_service_time=0``) and a fault-free service, every agent sits at a
batch barrier or an iteration boundary whenever a checkpoint fires, so
the replayed trajectory reproduces the uninterrupted run's remaining
records exactly (up to the ordering of same-instant completions).  Under
active fault injection, job ids — and therefore fault draws — shift
after resume, so the continuation is a statistically equivalent run
rather than a bitwise replay.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from ..nas.arch import Architecture
from ..rewards.base import EvalResult
from .base import RewardRecord

__all__ = ["AgentBoundary", "AgentCheckpoint", "SearchCheckpoint"]

FORMAT_VERSION = 1


@dataclass
class AgentBoundary:
    """State of one agent at the start of its last begun iteration."""

    time: float                       # virtual seconds at the boundary
    iteration: int                    # 0-based index of the iteration
    rng_state: dict                   # numpy bit-generator state
    policy_flat: np.ndarray | None    # packed parameters (None for RDM)
    opt_state: dict | None            # Adam moments (None for RDM)
    consecutive_cached: int
    cache_len: int                    # cache entries existing at boundary
    #: reward records this agent had appended at the boundary.  A sync
    #: agent parked at the barrier has already recorded its in-flight
    #: iteration; resume drops those records and lets the replay
    #: re-record them.
    num_records: int
    num_submitted: int
    num_cache_hits: int
    num_failed: int
    #: the agent's rolling trajectory digest at the boundary (see
    #: :mod:`repro.verify.fingerprint`); "" on checkpoints written
    #: before digests existed (resume falls back to the genesis digest)
    traj_digest: str = ""
    #: optimizer learning rate at the boundary — only recorded (and
    #: serialized) under guard-mode "recover", where rollbacks back the
    #: rate off from its configured value; None otherwise, keeping the
    #: guard-off checkpoint schema unchanged
    lr: float | None = None
    #: shared-history watermark (ambs/evolution): how many observations
    #: the proposer had folded when this iteration began, so a resumed
    #: agent's re-proposal reads exactly the history prefix the original
    #: one saw.  None for the RL/rdm methods (proposals depend only on
    #: per-agent state), keeping the v1 schema for them unchanged.
    proposer_seen: int | None = None


@dataclass
class AgentCheckpoint:
    """One agent's slice of a search checkpoint."""

    agent_id: int
    done: bool                        # agent already finished its loop
    converged: bool                   # finished via cache convergence
    boundary: AgentBoundary | None    # None when done
    cache_entries: list = field(default_factory=list)  # [(key, EvalResult)]
    #: final trajectory digest of a finished agent (None while running —
    #: the live digest travels on the boundary)
    traj_digest: str | None = None


@dataclass
class SearchCheckpoint:
    """Complete restartable snapshot of a running search."""

    time: float                       # virtual seconds at capture
    seed: int
    method: str
    space_name: str
    num_agents: int
    wall_time: float
    records: list[RewardRecord] = field(default_factory=list)
    agents: list[AgentCheckpoint] = field(default_factory=list)
    ps_state: dict | None = None
    converged_agents: int = 0
    failed_agents: list = field(default_factory=list)
    #: health-layer counters (repro.health): per-agent resurrection and
    #: rollback counts at capture time.  Both empty when the health
    #: layer is off, in which case they are not serialized at all —
    #: the v1 guard-off schema is pinned by the golden checkpoint test.
    agent_restarts: dict = field(default_factory=dict)
    agent_rollbacks: dict = field(default_factory=dict)
    #: process-backend quarantine state: agent_id -> poison-architecture
    #: rows (``[space, choices, kills, resubmits]``).  Empty — and not
    #: serialized — for every other backend, keeping the pinned v1
    #: schema unchanged; rides in the conditional ``health`` export.
    quarantine: dict = field(default_factory=dict)

    # -- persistence ----------------------------------------------------
    def to_json(self) -> dict:
        data = {
            "version": FORMAT_VERSION,
            "time": self.time,
            "seed": self.seed,
            "method": self.method,
            "space_name": self.space_name,
            "num_agents": self.num_agents,
            "wall_time": self.wall_time,
            "converged_agents": self.converged_agents,
            "failed_agents": [list(fa) for fa in self.failed_agents],
            "ps_state": self.ps_state,
            "records": [_record_to_json(r) for r in self.records],
            "agents": [_agent_to_json(a) for a in self.agents],
        }
        if self.agent_restarts or self.agent_rollbacks or self.quarantine:
            data["health"] = {
                "agent_restarts": {str(k): int(v) for k, v
                                   in self.agent_restarts.items()},
                "agent_rollbacks": {str(k): int(v) for k, v
                                    in self.agent_rollbacks.items()},
            }
            if self.quarantine:
                data["health"]["quarantine"] = {
                    str(k): v for k, v in self.quarantine.items()}
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SearchCheckpoint":
        if data.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {data.get('version')!r}")
        health = data.get("health", {})
        return cls(
            time=float(data["time"]),
            seed=int(data["seed"]),
            method=data["method"],
            space_name=data["space_name"],
            num_agents=int(data["num_agents"]),
            wall_time=float(data["wall_time"]),
            records=[_record_from_json(r) for r in data["records"]],
            agents=[_agent_from_json(a) for a in data["agents"]],
            ps_state=data["ps_state"],
            converged_agents=int(data["converged_agents"]),
            failed_agents=[tuple(fa) for fa in data["failed_agents"]],
            agent_restarts={int(k): int(v) for k, v in
                            health.get("agent_restarts", {}).items()},
            agent_rollbacks={int(k): int(v) for k, v in
                             health.get("agent_rollbacks", {}).items()},
            quarantine={int(k): v for k, v in
                        health.get("quarantine", {}).items()},
        )

    def round_trip(self) -> "SearchCheckpoint":
        """JSON-encode and decode (what a checkpoint generation's save
        and load do, without disk)."""
        return self.from_json(json.loads(json.dumps(self.to_json())))

    def fingerprint(self) -> str:
        """Determinism fingerprint of the trajectory captured so far.

        Combines the record multiset with every agent's rolling digest
        (finished agents carry it on the checkpoint, running agents on
        their boundary); comparable against
        :meth:`repro.search.base.SearchResult.fingerprint` semantics for
        runs checkpointed at the same virtual time.
        """
        from ..verify.fingerprint import trajectory_fingerprint
        digests = {}
        for agent in self.agents:
            if agent.done and agent.traj_digest:
                digests[agent.agent_id] = agent.traj_digest
            elif agent.boundary is not None and agent.boundary.traj_digest:
                digests[agent.agent_id] = agent.boundary.traj_digest
        return trajectory_fingerprint(self.records, digests,
                                      method=self.method, seed=self.seed)


# ----------------------------------------------------------------------
# JSON helpers
# ----------------------------------------------------------------------
def _result_to_json(res: EvalResult) -> list:
    return [res.reward, res.duration, res.params, res.timed_out]


def _result_from_json(data: list) -> EvalResult:
    return EvalResult(float(data[0]), float(data[1]), int(data[2]),
                      bool(data[3]))


def _record_to_json(rec: RewardRecord) -> dict:
    return {"time": rec.time, "agent_id": rec.agent_id,
            "arch": rec.arch.to_dict(), "reward": rec.reward,
            "params": rec.params, "duration": rec.duration,
            "cached": rec.cached, "timed_out": rec.timed_out}


def _record_from_json(data: dict) -> RewardRecord:
    return RewardRecord(
        time=float(data["time"]), agent_id=int(data["agent_id"]),
        arch=Architecture.from_dict(data["arch"]),
        reward=float(data["reward"]), params=int(data["params"]),
        duration=float(data["duration"]), cached=bool(data["cached"]),
        timed_out=bool(data["timed_out"]))


def _agent_to_json(agent: AgentCheckpoint) -> dict:
    b = agent.boundary
    return {
        "agent_id": agent.agent_id,
        "done": agent.done,
        "converged": agent.converged,
        "boundary": None if b is None else {
            # recover-mode only; absent keeps the guard-off v1 schema
            **({} if b.lr is None else {"lr": b.lr}),
            # shared-history methods only; absent keeps the v1 schema
            **({} if b.proposer_seen is None
               else {"proposer_seen": b.proposer_seen}),
            "time": b.time,
            "iteration": b.iteration,
            "rng_state": _jsonable(b.rng_state),
            "policy_flat": (None if b.policy_flat is None
                            else b.policy_flat.tolist()),
            "opt_state": (None if b.opt_state is None else {
                "t": int(b.opt_state["t"]),
                "m": np.asarray(b.opt_state["m"]).tolist(),
                "v": np.asarray(b.opt_state["v"]).tolist(),
            }),
            "consecutive_cached": b.consecutive_cached,
            "cache_len": b.cache_len,
            "num_records": b.num_records,
            "num_submitted": b.num_submitted,
            "num_cache_hits": b.num_cache_hits,
            "num_failed": b.num_failed,
            "traj_digest": b.traj_digest,
        },
        "cache": [[_key_to_json(key), _result_to_json(res)]
                  for key, res in agent.cache_entries],
        "traj_digest": agent.traj_digest,
    }


def _agent_from_json(data: dict) -> AgentCheckpoint:
    b = data["boundary"]
    boundary = None if b is None else AgentBoundary(
        time=float(b["time"]), iteration=int(b["iteration"]),
        rng_state=b["rng_state"],
        policy_flat=(None if b["policy_flat"] is None
                     else np.asarray(b["policy_flat"], dtype=np.float64)),
        opt_state=(None if b["opt_state"] is None else {
            "t": int(b["opt_state"]["t"]),
            "m": np.asarray(b["opt_state"]["m"], dtype=np.float64),
            "v": np.asarray(b["opt_state"]["v"], dtype=np.float64),
        }),
        consecutive_cached=int(b["consecutive_cached"]),
        cache_len=int(b["cache_len"]),
        num_records=int(b["num_records"]),
        num_submitted=int(b["num_submitted"]),
        num_cache_hits=int(b["num_cache_hits"]),
        num_failed=int(b["num_failed"]),
        traj_digest=str(b.get("traj_digest", "")),
        lr=(None if b.get("lr") is None else float(b["lr"])),
        proposer_seen=(None if b.get("proposer_seen") is None
                       else int(b["proposer_seen"])))
    cache = [(_key_from_json(key), _result_from_json(res))
             for key, res in data["cache"]]
    return AgentCheckpoint(agent_id=int(data["agent_id"]),
                           done=bool(data["done"]),
                           converged=bool(data["converged"]),
                           boundary=boundary, cache_entries=cache,
                           traj_digest=data.get("traj_digest"))


def _key_to_json(key: tuple) -> list:
    space, choices = key
    return [space, list(choices)]


def _key_from_json(data: list) -> tuple:
    return (data[0], tuple(int(c) for c in data[1]))


def _jsonable(obj):
    """Deep-convert numpy scalars/arrays inside an RNG state dict."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return copy.deepcopy(obj)
