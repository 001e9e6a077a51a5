"""Search run configuration and result containers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..health.guards import GuardConfig
from ..hpc.cluster import Cluster, NodeAllocation
from ..hpc.faults import FaultConfig
from ..nas.arch import Architecture

if TYPE_CHECKING:   # annotation only — no runtime evaluator dependency
    from ..evaluator.process import ProcConfig

__all__ = ["SearchConfig", "RewardRecord", "SearchResult", "rank_key"]


@dataclass(frozen=True)
class SearchConfig:
    """Configuration of one NAS run.

    Defaults mirror the paper's reference setup: 256 nodes split into 21
    agents × 11 workers, 360 minutes of wall time, M = workers-per-agent
    architectures per agent iteration, and the LSTM(32) controller with
    PPO epochs=4 / clip=0.2 (the :class:`~repro.rl.policy.LSTMPolicy` and
    :class:`~repro.rl.ppo.PPOConfig` defaults) at the runner's
    calibrated lr=6e-3.  Settings that no run changes are constants of
    the module that reads them (DESIGN.md, "Settings").
    """

    method: str = "a3c"       # any name in repro.search.methods.SEARCH_METHODS
    allocation: NodeAllocation = field(
        default_factory=NodeAllocation.paper_256)
    wall_time: float = 360.0 * 60.0       # seconds of (virtual) wall clock
    entropy_coef: float = 0.002
    #: run seed.  Every agent initializes its policy from it, so all
    #: agents start from one network (§3.2: "all N agents start with the
    #: same policy network")
    seed: int = 0
    #: consecutive all-cache-hit iterations (per agent) before an agent
    #: declares convergence; the search stops when all agents have
    #: (§5.1: the search "could not proceed in a meaningful way")
    convergence_patience: int = 3
    #: agent-local evaluation cache (§4); disable for ablations
    use_cache: bool = True
    #: shared isomorphism-keyed compile cache
    #: (:class:`~repro.nas.plancache.PlanCache`): plans amortize across
    #: agents and iterations, and the evaluator batch-gathers each
    #: submission against it.  Plans are immutable, so this never
    #: perturbs the determinism fingerprint; disable for ablations
    plan_cache: bool = True
    #: A3C parameter-server staleness window (None = num_agents // 2,
    #: "a set of recently received gradients")
    staleness_window: int | None = None
    #: simulated seconds the A3C parameter server needs to process one
    #: full update vector (0 = free exchange); makes PS contention
    #: visible.  k shards (§7's "multiparameter servers") would receive
    #: the same push stream and move in lockstep, so they are this
    #: setting divided by k
    ps_service_time: float = 0.0
    #: fault model driving node failures, job crashes, stragglers and
    #: service outages (None = fault layer fully inert)
    faults: FaultConfig | None = None
    #: abandon any evaluation still unfinished this many virtual seconds
    #: after batch submission, so the per-agent barrier always releases
    #: (None = wait forever; safe only with a fault-free service)
    batch_deadline: float | None = None
    #: numerical-health guards (repro.health): None or mode "off" leaves
    #: every guarded code path bit-identical to the unguarded build;
    #: "check" detects and crashes the offending agent; "recover" rolls
    #: back to the agent's iteration boundary with learning-rate backoff
    #: first
    guard: GuardConfig | None = None
    #: restart crashed (or guard-escalated) agents from their last
    #: iteration boundary up to this many times per agent (0 = crashed
    #: agents stay down, the pre-health behaviour)
    max_restarts: int = 0
    #: evaluation backend: "balsam" (simulated service over the virtual
    #: cluster, the default), or one of the real in-host backends —
    #: "serial", "thread", "process" (supervised worker pool,
    #: :mod:`repro.evaluator.process`).  Real backends complete batches
    #: in zero *virtual* time, so they require ``max_iterations``
    backend: str = "balsam"
    #: supervision policy of the "process" backend (None = defaults)
    proc: "ProcConfig | None" = None
    #: stop every agent after this many iterations (required for real
    #: backends, where virtual wall time never advances; optional for
    #: balsam)
    max_iterations: int | None = None
    #: install SIGTERM/SIGINT handlers for the duration of ``run()``:
    #: on signal the search stops at the next event boundary, captures a
    #: resumable checkpoint, and returns with ``SearchResult.preempted``
    preemptible: bool = False
    #: write-ahead search journal + checkpoint generations live under
    #: this directory (:mod:`repro.search.journal`) — the only on-disk
    #: event log and checkpoint store.  A fresh run refuses a directory
    #: that already holds a run (continue that one with
    #: ``resume_durable``); None = durability layer fully off
    journal_dir: str | None = None
    #: fsync the journal after every Nth record (None = never fsync —
    #: flush-only, survives process crashes but not host crashes)
    journal_fsync_every: int | None = None
    #: capture a resumable search checkpoint every time this many new
    #: reward records have accumulated since the last capture (None =
    #: checkpointing off).  The one checkpoint clock: it fires at
    #: iteration boundaries on every backend, so resumed runs stay
    #: bit-identical
    checkpoint_every_records: int | None = None
    #: method="evolution": aging-population window and tournament draw
    #: (defaults follow Real et al., 2018)
    population_size: int = 50
    tournament_size: int = 10

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.backend not in ("balsam", "serial", "thread", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend != "balsam" and self.max_iterations is None:
            raise ValueError(
                f"backend {self.backend!r} runs in real time, where the "
                f"virtual wall clock never advances — set max_iterations "
                f"to bound the run")
        if self.max_iterations is not None and self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.proc is not None and self.backend != "process":
            raise ValueError("proc config requires backend='process'")
        # validated against the method registry, so a registered
        # proposer is all a new method name needs
        # (imported lazily: methods pulls in the rl/health stacks)
        from .methods import SEARCH_METHODS
        if self.method not in SEARCH_METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; registered methods: "
                f"{', '.join(sorted(SEARCH_METHODS))}")
        if self.population_size <= 1:
            raise ValueError("population_size must be > 1")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError(
                "tournament_size must be in [1, population_size]")
        if self.wall_time <= 0:
            raise ValueError("wall_time must be positive")
        if self.batch_deadline is not None and self.batch_deadline <= 0:
            raise ValueError("batch_deadline must be positive")
        if self.journal_fsync_every is not None \
                and self.journal_fsync_every <= 0:
            raise ValueError("journal_fsync_every must be positive")
        if self.journal_fsync_every is not None and self.journal_dir is None:
            raise ValueError("journal_fsync_every requires journal_dir")
        if self.checkpoint_every_records is not None \
                and self.checkpoint_every_records <= 0:
            raise ValueError("checkpoint_every_records must be positive")


@dataclass(frozen=True)
class RewardRecord:
    """One reward estimation, as logged for the analytics module."""

    time: float              # virtual seconds at completion
    agent_id: int
    arch: Architecture
    reward: float
    params: int
    duration: float
    cached: bool
    timed_out: bool

    def to_json(self) -> dict:
        """One JSON object per record, the codec checkpoints write; a
        journal's eval-done and cache-hit events carry the same fields."""
        return {"time": self.time, "agent_id": self.agent_id,
                "arch": self.arch.to_dict(), "reward": self.reward,
                "params": self.params, "duration": self.duration,
                "cached": self.cached, "timed_out": self.timed_out}

    @classmethod
    def from_json(cls, data: dict) -> "RewardRecord":
        """Inverse of :meth:`to_json`."""
        return cls(
            time=float(data["time"]), agent_id=int(data["agent_id"]),
            arch=Architecture.from_dict(data["arch"]),
            reward=float(data["reward"]), params=int(data["params"]),
            duration=float(data["duration"]), cached=bool(data["cached"]),
            timed_out=bool(data["timed_out"]))


def rank_key(rec: RewardRecord) -> float:
    """Reward as a ranking key with NaN pinned to -inf.  NaN compares
    False both ways, so a NaN reward (guards off, metric diverged) could
    otherwise neither be displaced by nor rank below a finite one."""
    return -math.inf if math.isnan(rec.reward) else rec.reward


@dataclass
class SearchResult:
    """Everything a finished search run produced."""

    config: SearchConfig
    records: list[RewardRecord]
    cluster: Cluster
    end_time: float                  # virtual seconds when the run stopped
    converged: bool                  # stopped early on full-cache convergence
    unique_architectures: int
    #: (agent_id, reason) for agents that crashed rather than finishing;
    #: crashed agents deregister cleanly and never deadlock the rest
    failed_agents: list = field(default_factory=list)
    #: evaluations surfaced as FAILURE_REWARD (retries exhausted,
    #: batch-deadline abandonment) across all agents
    num_failed_evals: int = 0
    #: per-agent rolling trajectory digests (actions, rewards, and
    #: post-update policy parameters chained per iteration); see
    #: :mod:`repro.verify.fingerprint`
    agent_digests: dict = field(default_factory=dict)
    #: health-layer bookkeeping (repro.health): how often each agent was
    #: resurrected from its iteration boundary, and how often each
    #: agent's policy was rolled back to a known-good snapshot.  Both
    #: stay empty when the health layer is off.
    agent_restarts: dict = field(default_factory=dict)
    agent_rollbacks: dict = field(default_factory=dict)
    #: the run was preempted (SIGTERM/SIGINT under ``preemptible``, or
    #: an explicit ``request_preemption``) and stopped at an event
    #: boundary after capturing a resumable checkpoint
    preempted: bool = False
    #: process-backend supervision counters aggregated across agents
    #: (worker_spawns / worker_crashes / worker_timeouts / respawns /
    #: quarantined / inline_evals); empty for other backends
    worker_stats: dict = field(default_factory=dict)

    @property
    def num_evaluations(self) -> int:
        return len(self.records)

    @property
    def num_restarts(self) -> int:
        return sum(self.agent_restarts.values())

    @property
    def num_rollbacks(self) -> int:
        return sum(self.agent_rollbacks.values())

    def fingerprint(self) -> str:
        """Canonical determinism fingerprint of this run's trajectory.

        Same seed + same config ⇒ same fingerprint; a checkpoint/resume
        run fingerprints identically to the uninterrupted run.
        """
        from ..verify.fingerprint import trajectory_fingerprint
        return trajectory_fingerprint(self.records, self.agent_digests,
                                      method=self.config.method,
                                      seed=self.config.seed)

    def best(self) -> RewardRecord:
        if not self.records:
            raise ValueError("no evaluations recorded")
        return max(self.records, key=rank_key)

    def utilization_trace(self, bin_minutes: float = 5.0
                          ) -> list[tuple[float, float]]:
        """(minutes, utilization) bins over the run."""
        trace = self.cluster.utilization_trace(
            max(self.end_time, 1e-9), bin_minutes * 60.0)
        return [(t / 60.0, u) for t, u in trace]
