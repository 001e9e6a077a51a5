"""Search run configuration and result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..health.guards import GuardConfig
from ..hpc.cluster import Cluster, NodeAllocation
from ..hpc.faults import FaultConfig
from ..nas.arch import Architecture

if TYPE_CHECKING:   # annotation only — no runtime evaluator dependency
    from ..evaluator.process import ProcConfig

__all__ = ["SearchConfig", "RewardRecord", "SearchResult"]


@dataclass(frozen=True)
class SearchConfig:
    """Configuration of one NAS run.

    Defaults mirror the paper's reference setup: 256 nodes split into 21
    agents × 11 workers, 360 minutes of wall time, M = workers-per-agent
    architectures per agent iteration, LSTM(32) controller, PPO with
    epochs=4 / clip=0.2 / lr=0.001.
    """

    method: str = "a3c"       # any name in repro.search.methods.SEARCH_METHODS
    allocation: NodeAllocation = field(
        default_factory=NodeAllocation.paper_256)
    wall_time: float = 360.0 * 60.0       # seconds of (virtual) wall clock
    hidden: int = 32
    embed_dim: int = 16
    ppo_epochs: int = 4
    ppo_clip: float = 0.2
    #: controller learning rate.  The paper trains the LSTM with
    #: lr=0.001 under TensorFlow's loss scaling; with this numpy PPO the
    #: equivalent per-round movement calibrates to 4e-3 (see
    #: EXPERIMENTS.md, calibration note).
    lr: float = 6e-3
    entropy_coef: float = 0.002
    seed: int = 0
    #: identical policy init across agents (§3.2: "all N agents start
    #: with the same policy network")
    shared_policy_init: bool = True
    #: consecutive all-cache-hit iterations (per agent) before an agent
    #: declares convergence; the search stops when all agents have
    #: (§5.1: the search "could not proceed in a meaningful way")
    convergence_patience: int = 3
    #: agent-local evaluation cache (§4); disable for ablations
    use_cache: bool = True
    #: shared isomorphism-keyed compile cache
    #: (:class:`~repro.nas.plancache.PlanCache`): plans amortize across
    #: agents and iterations, and the broker batch-gathers each
    #: submission against it.  Plans are immutable, so this never
    #: perturbs the determinism fingerprint; disable for ablations
    plan_cache: bool = True
    #: A3C parameter-server staleness window (None = num_agents // 2,
    #: "a set of recently received gradients")
    staleness_window: int | None = None
    #: simulated seconds the parameter server needs to process one full
    #: update vector (0 = free exchange); makes PS contention visible
    ps_service_time: float = 0.0
    #: shard the A3C parameter server across this many independent
    #: servers (§7's "multiparameter servers"); each serves its slice in
    #: ps_service_time / ps_shards
    ps_shards: int = 1
    #: fault model driving node failures, job crashes, stragglers and
    #: service outages (None = fault layer fully inert)
    faults: FaultConfig | None = None
    #: abandon any evaluation still unfinished this many virtual seconds
    #: after batch submission, so the per-agent barrier always releases
    #: (None = wait forever; safe only with a fault-free service)
    batch_deadline: float | None = None
    #: Balsam restart policy: max restarts per job, then the base and
    #: cap of the capped-exponential retry backoff (virtual seconds)
    max_eval_retries: int = 3
    retry_backoff: float = 5.0
    retry_backoff_cap: float = 120.0
    #: capture a resumable search checkpoint every this many virtual
    #: seconds (None = checkpointing off)
    checkpoint_interval: float | None = None
    #: numerical-health guards (repro.health): None or mode "off" leaves
    #: every guarded code path bit-identical to the unguarded build;
    #: "check" detects and crashes the offending agent; "recover" rolls
    #: back to the last good snapshot with learning-rate backoff first
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
    #: additionally capture a checkpoint every time this many new reward
    #: records have accumulated since the last capture (None = off);
    #: fires at iteration boundaries, so resumed runs stay bit-identical
    checkpoint_every_records: int | None = None
    #: method="evolution": aging-population window and tournament draw
    #: (defaults follow Real et al., 2018)
    population_size: int = 50
    tournament_size: int = 10
    #: method="ambs": observations required before the surrogate takes
    #: over from random proposals
    ambs_warmup: int = 10
    #: method="ambs": acquisition candidate-pool size per batch slot
    ambs_candidates: int = 128
    #: method="ambs": UCB exploration weight (mean + kappa * std); 1.0
    #: calibrates to the bootstrap ridge ensemble's spread, which runs
    #: wide on small fit sets (1.96 over-explores)
    ambs_kappa: float = 1.0
    #: method="ambs": constant-liar reward for in-flight batch slots —
    #: "min" | "mean" | "max" of the observed rewards
    ambs_liar: str = "min"
    #: method="ambs": bootstrap ridge-ensemble members
    ambs_ensemble: int = 8

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
        # proposer/exchange pairing is all a new method name needs
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
        if self.ambs_warmup < 1:
            raise ValueError("ambs_warmup must be positive")
        if self.ambs_candidates < 1:
            raise ValueError("ambs_candidates must be positive")
        if self.ambs_kappa < 0:
            raise ValueError("ambs_kappa must be non-negative")
        if self.ambs_liar not in ("min", "mean", "max"):
            raise ValueError(
                f"ambs_liar must be 'min', 'mean' or 'max', "
                f"got {self.ambs_liar!r}")
        if self.ambs_ensemble < 2:
            raise ValueError("ambs_ensemble must be >= 2 (the ensemble "
                             "spread is the uncertainty estimate)")
        if self.wall_time <= 0:
            raise ValueError("wall_time must be positive")
        if self.batch_deadline is not None and self.batch_deadline <= 0:
            raise ValueError("batch_deadline must be positive")
        if self.checkpoint_interval is not None \
                and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.max_eval_retries < 0:
            raise ValueError("max_eval_retries must be non-negative")
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

    @staticmethod
    def _rank_key(rec: RewardRecord) -> float:
        """Reward as a ranking key with NaN pinned to -inf, so a NaN
        reward (guards off, metric diverged) can never outrank — or,
        via comparison-is-always-False, squat above — a finite one."""
        r = rec.reward
        return float("-inf") if np.isnan(r) else r

    def best(self) -> RewardRecord:
        if not self.records:
            raise ValueError("no evaluations recorded")
        return max(self.records, key=self._rank_key)

    def top_k(self, k: int = 50) -> list[RewardRecord]:
        """Best-reward record per distinct architecture, best first (the
        paper selects the top 50 for post-training)."""
        best_by_arch: dict[tuple, RewardRecord] = {}
        for rec in self.records:
            cur = best_by_arch.get(rec.arch.key)
            if cur is None or self._rank_key(rec) > self._rank_key(cur):
                best_by_arch[rec.arch.key] = rec
        ranked = sorted(best_by_arch.values(),
                        key=lambda r: -self._rank_key(r))
        return ranked[:k]

    def reward_trajectory(self) -> np.ndarray:
        """(time_minutes, best_reward_so_far) rows, one per evaluation."""
        from ..analytics.trajectory import best_so_far_trajectory
        return best_so_far_trajectory(self.records)

    def regret_trajectory(self, optimum: float) -> np.ndarray:
        """(minutes, exact regret of best-so-far) rows against a known
        global optimum — e.g. ``table.optimum().reward`` of the bench
        table the run replayed (:mod:`repro.bench`)."""
        from ..analytics.regret import regret_trajectory
        return regret_trajectory(self.records, optimum)

    def fraction_of_optimum(self, optimum: float,
                            floor: float = -1.0) -> np.ndarray:
        """(minutes, best-so-far normalized over [floor, optimum]) rows;
        1.0 means the exact optimum was found (floor defaults to the
        failure reward)."""
        from ..analytics.regret import fraction_of_optimum_trajectory
        return fraction_of_optimum_trajectory(self.records, optimum,
                                              floor=floor)

    def utilization_trace(self, bin_minutes: float = 5.0
                          ) -> list[tuple[float, float]]:
        """(minutes, utilization) bins over the run."""
        trace = self.cluster.utilization_trace(
            max(self.end_time, 1e-9), bin_minutes * 60.0)
        return [(t / 60.0, u) for t, u in trace]
