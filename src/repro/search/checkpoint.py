"""Search checkpoint / resume (§4's "restart failed tasks", writ large).

A 6-hour, 1,024-node search that dies at hour 5 must not restart from
scratch.  A checkpoint holds everything the search loop needs to
continue a run deterministically:

* per-agent **iteration boundaries** — the virtual time at which the
  agent last started an iteration, its policy's flat parameter vector
  (``get_flat``), its RNG bit-generator state, its convergence
  counter, and how much of its evaluation cache existed at that point;
* the **global reward records** of all completed iterations and each
  agent's **evaluation-cache entries** — on a loaded checkpoint only:
  the journal holds both, so neither a capture nor the version-2 file
  copies them, and loading rebuilds them from the journal prefix the
  generation's watermark names (:mod:`repro.search.journal`);
* the **parameter-server state** (recent-update window, round/push
  counters, active-agent count), excluding pushes from in-flight
  iterations;
* which agents had already finished (converged, stopped, or crashed).

A checkpoint exists only as a verified generation under a journal
directory (:mod:`repro.search.journal`): the runner captures one only
when a journal is attached, and a file costs O(agents), not
O(records).  Version-1 files, which embed the records and the caches,
still load.  Resume —
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
from dataclasses import dataclass, field

import numpy as np

from ..rewards.base import EvalResult
from .base import RewardRecord

__all__ = ["AgentBoundary", "AgentCheckpoint", "SearchCheckpoint",
           "restore_boundary", "trim_to_boundaries"]

#: the version :meth:`SearchCheckpoint.to_json` writes; version 1, which
#: also embedded ``records`` and each agent's ``cache``, still loads
FORMAT_VERSION = 2


@dataclass
class AgentBoundary:
    """State of one agent at the start of its last begun iteration.

    The only copy of an agent's restorable state: checkpoint capture
    and apply, in-run resurrection and health rollback all read it
    (:class:`~repro.search.hooks.BoundaryHook` takes it).
    """

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
    #: per-agent state), keeping the pinned schemas for them unchanged.
    proposer_seen: int | None = None


def restore_boundary(boundary: AgentBoundary, policy, optimizer) -> None:
    """Put a boundary's policy vector, Adam moments and learning rate
    back onto ``policy`` / ``optimizer`` (either may be None, as for
    RDM).  The one restore path of checkpoint apply, in-run
    resurrection and health rollback; the boundary itself is only read,
    so it stays valid for the next consumer."""
    if policy is not None and boundary.policy_flat is not None:
        policy.set_flat(np.asarray(boundary.policy_flat))
    if optimizer is None:
        return
    if boundary.opt_state is not None:
        optimizer.restore_state(boundary.opt_state)
    if boundary.lr is not None:
        optimizer.lr = boundary.lr


def trim_to_boundaries(records: list[RewardRecord],
                       budgets: dict[int, int]) -> list[RewardRecord]:
    """Keep each budgeted agent's first ``budgets[agent_id]`` records
    (those up to its iteration boundary; its replay re-records the
    rest) and every record of the other agents."""
    left = dict(budgets)
    kept = []
    for rec in records:
        if rec.agent_id in left:
            if left[rec.agent_id] <= 0:
                continue
            left[rec.agent_id] -= 1
        kept.append(rec)
    return kept


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
    """Complete restartable snapshot of a running search.  A capture
    leaves ``records`` and each agent's ``cache_entries`` empty; only
    loading a generation fills them."""

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
    #: the guard-off schemas are pinned by the golden checkpoint tests.
    agent_restarts: dict = field(default_factory=dict)
    agent_rollbacks: dict = field(default_factory=dict)
    #: process-backend quarantine state: agent_id -> poison-architecture
    #: rows (``[space, choices, kills, resubmits]``).  Empty — and not
    #: serialized — for every other backend, keeping the pinned
    #: schemas unchanged; rides in the conditional ``health`` export.
    quarantine: dict = field(default_factory=dict)

    # -- persistence ----------------------------------------------------
    def to_json(self) -> dict:
        """The version-2 wire form: everything but the records and the
        cache entries, which the journal holds."""
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
        """Decode either version.  A version-2 checkpoint comes back with
        no records and no cache entries; its loader fills them in from
        the journal (:meth:`~repro.search.journal.CheckpointGenerations
        .load_latest`)."""
        version = data.get("version")
        if version not in (1, FORMAT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version!r}")
        embedded = version == 1
        health = data.get("health", {})
        return cls(
            time=float(data["time"]),
            seed=int(data["seed"]),
            method=data["method"],
            space_name=data["space_name"],
            num_agents=int(data["num_agents"]),
            wall_time=float(data["wall_time"]),
            records=([RewardRecord.from_json(r) for r in data["records"]]
                     if embedded else []),
            agents=[_agent_from_json(a, embedded) for a in data["agents"]],
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


# ----------------------------------------------------------------------
# JSON helpers
# ----------------------------------------------------------------------
def _agent_to_json(agent: AgentCheckpoint) -> dict:
    b = agent.boundary
    return {
        "agent_id": agent.agent_id,
        "done": agent.done,
        "converged": agent.converged,
        "boundary": None if b is None else {
            # recover-mode only; absent keeps the guard-off schema
            **({} if b.lr is None else {"lr": b.lr}),
            # shared-history methods only; absent keeps the schema
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
        "traj_digest": agent.traj_digest,
    }


def _agent_from_json(data: dict, embedded: bool) -> AgentCheckpoint:
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
    # only version 1 embeds the cache (``[[space, choices], [reward,
    # duration, params, timed_out]]`` rows)
    cache = ([((key[0], tuple(int(c) for c in key[1])),
               EvalResult(float(res[0]), float(res[1]), int(res[2]),
                          bool(res[3])))
              for key, res in data["cache"]] if embedded else [])
    return AgentCheckpoint(agent_id=int(data["agent_id"]),
                           done=bool(data["done"]),
                           converged=bool(data["converged"]),
                           boundary=boundary, cache_entries=cache,
                           traj_digest=data.get("traj_digest"))


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
