"""Multi-agent NAS runner over the simulated cluster (§3.2, Fig. 2/3).

The runner is a thin composition root.  Each agent is an
:class:`~repro.search.loop.AgentLoop` coroutine wired from the runtime
seams (see ``docs/architecture.md``):

* a shared :class:`~repro.search.proposer.Proposer`, the configured
  method's row of the registry
  (:data:`~repro.search.methods.SEARCH_METHODS`); the RL methods'
  proposer owns the parameter server their agents exchange through;
* a per-agent :class:`~repro.evaluator.base.Evaluator` — by default a
  :class:`~repro.evaluator.balsam.BalsamEvaluator` over the shared
  Balsam service;
* a :class:`~repro.search.hooks.HookStack` through which iteration
  boundary capture, numeric fault injection, and health guards attach.

What is left here is orchestration: spawning agents, the crash-safe
wrapper with resurrection, checkpoint capture/restore, and final
accounting.  Capture and apply stay here because they read and write
the runner's own state (records, evaluators, proposer, per-agent
bookkeeping); the boundary they share with resurrection and health
rollback, and the one function that restores it, live in
:mod:`repro.search.checkpoint`.  All layers emit
:class:`~repro.events.SearchEvent` records to an optional
``event_sink``.

The search stops when every agent has stopped, or at the wall-time
limit, whichever is first — matching the paper's runs, where A3C on
Combo/NT3 ended early "because all the agents generate the same
architecture for which the agent-specific cache returns the same
reward".

Fault tolerance (see ``docs/robustness.md``): a
:class:`~repro.hpc.faults.FaultConfig` on the search config drives node
failures, job crashes, stragglers and service outages; the Balsam
service retries failed jobs with exponential backoff and
surfaces exhausted jobs as failure rewards; a crashed agent coroutine
deregisters from the parameter server cleanly (no deadlocked barrier)
and is reported in ``SearchResult.failed_agents``; and
``checkpoint_every_records`` captures resumable
:class:`~repro.search.checkpoint.SearchCheckpoint` snapshots from which
a killed search continues deterministically.  With none of these knobs
set, the loop is byte-for-byte the fault-free search.
"""

from __future__ import annotations

import signal
from dataclasses import asdict

from ..evaluator.balsam import BalsamEvaluator, BalsamService
from ..evaluator.base import Evaluator
from ..evaluator.process import ProcessEvaluator
from ..evaluator.serial import SerialEvaluator
from ..evaluator.thread import ThreadEvaluator
from ..events import (AGENT_DONE, CHECKPOINT, CRASH, PREEMPT, RESTART, RUN,
                      RUN_END, EventSink, TeeSink, emit)
from ..hpc.cluster import Cluster
from ..hpc.faults import FaultInjector
from ..hpc.sim import Interrupt, Simulator
from ..nas.plancache import PlanCache
from ..nas.space import Structure
from ..rewards.base import RewardModel
from ..rl.policy import LSTMPolicy
from ..rl.ppo import PPOConfig, PPOUpdater
from .base import RewardRecord, SearchConfig, SearchResult
from .checkpoint import (AgentBoundary, AgentCheckpoint, SearchCheckpoint,
                         restore_boundary, trim_to_boundaries)
from .methods import build_proposer
from .hooks import BoundaryHook, HealthHook, HookStack, NumericFaultHook
from .journal import SearchJournal
from .loop import AgentLoop

__all__ = ["NasSearch", "run_search"]

#: controller learning rate.  The paper trains the LSTM with lr=0.001
#: under TensorFlow's loss scaling; with this numpy PPO the equivalent
#: per-round movement calibrates to 6e-3 (see EXPERIMENTS.md,
#: calibration note).
_LR = 6e-3


class NasSearch:
    """Binds a search space + reward model to a :class:`SearchConfig`.

    ``resume_from`` restarts a previously checkpointed search: finished
    agents stay finished, unfinished agents restart at their recorded
    iteration boundaries with restored policy/RNG/cache state, and the
    parameter server resumes its exchange history (from disk,
    :func:`~repro.search.journal.resume_durable` builds this call from
    the newest verified checkpoint generation).  ``event_sink``
    receives the structured event stream from every layer.
    """

    def __init__(self, space: Structure, reward_model: RewardModel,
                 config: SearchConfig | None = None,
                 resume_from: SearchCheckpoint | None = None,
                 event_sink: EventSink | None = None,
                 journal: SearchJournal | None = None,
                 replay: dict | None = None) -> None:
        self.space = space
        self.reward_model = reward_model
        self.config = cfg = config or SearchConfig()
        self._attach_journal(journal, event_sink)

        self.sim = Simulator()
        self.cluster = Cluster(self.sim, cfg.allocation.worker_nodes)
        self.injector = (FaultInjector(self.sim, cfg.faults)
                         if cfg.faults is not None and cfg.faults.enabled
                         else None)
        self.service = BalsamService(self.sim, self.cluster,
                                     faults=self.injector)
        self.proposer = build_proposer(self.sim, cfg, space, self.sink)
        if cfg.plan_cache and reward_model.plan_cache is None:
            # one shared compile cache for every agent; a reward model
            # that already carries one (checkpoint resume, explicit
            # attachment) keeps it — warm plans survive the restart
            reward_model.set_plan_cache(PlanCache())

        self.records: list[RewardRecord] = []
        self._converged_agents = 0
        self._failed_agents: list[tuple[int, str]] = []
        self._done_agents: dict[int, bool] = {}    # agent_id -> converged
        #: each live agent's current iteration boundary, the one copy of
        #: its restorable state; a lifetime starts from it when present
        self._boundaries: dict[int, AgentBoundary] = {}
        #: per-agent rolling trajectory digests (repro.verify.fingerprint)
        self._digests: dict[int, str] = {}
        self._search_end_time: float | None = None
        #: preemption cause (signal name or explicit request); None while
        #: the search is allowed to keep running
        self._preempt_cause: str | None = None
        #: the zero-delay event a requested preemption waits for
        self._preempt_settle = None
        #: checkpoints captured during run() (newest last)
        self.checkpoints: list[SearchCheckpoint] = []
        #: records present at the last capture (drives the
        #: ``checkpoint_every_records`` trigger)
        self._records_at_ckpt = 0
        #: a deferred record-count capture is already scheduled
        self._record_ckpt_pending = False
        #: journal-replay entries armed across all evaluators at resume
        self.num_replay_loaded = 0
        #: health-layer bookkeeping: per-agent resurrections and
        #: policy rollbacks (repro.health; stays empty with guards off)
        self._restarts: dict[int, int] = {}
        self._rollbacks: dict[int, int] = {}

        self._build_agents()
        if resume_from is not None:
            self._apply_checkpoint(resume_from)
        self._load_replay(replay)
        self._live_agents = cfg.allocation.num_agents - len(self._done_agents)

    @property
    def ps(self):
        """The proposer's parameter server (None for the non-RL
        methods)."""
        return self.proposer.ps

    def _attach_journal(self, journal: SearchJournal | None,
                        event_sink: EventSink | None) -> None:
        """Durability root (repro.search.journal): every event is teed
        into the write-ahead journal, and checkpoints are written as
        verified generations next to it.  A fresh run opens
        ``cfg.journal_dir`` itself, which must not already hold a run;
        ``resume_durable`` hands in the journal it read back."""
        self.journal = journal
        if self.journal is None and self.config.journal_dir is not None:
            self.journal = SearchJournal.fresh(
                self.config.journal_dir,
                fsync_every=self.config.journal_fsync_every)
        self.sink = (TeeSink(self.journal.writer, event_sink)
                     if self.journal is not None else event_sink)

    def _load_replay(self, replay: dict | None) -> None:
        """Arm each evaluator with the dead run's journaled completions;
        the resumed trajectory deterministically re-submits exactly
        these architectures and they answer without re-executing."""
        if not replay:
            return
        for agent_id, entries in replay.items():
            self.evaluators[agent_id].load_replay(entries)
        self.num_replay_loaded = sum(len(v) for v in replay.values())

    def _build_evaluator(self, agent_id: int):
        """One agent's evaluator on the configured backend.

        The default "balsam" backend runs over the simulated service;
        the real backends (serial / thread / process) execute the reward
        model in host time.  All report record timestamps on the
        simulator clock so the event stream stays on one timeline.
        """
        cfg = self.config
        if cfg.backend == "balsam":
            return BalsamEvaluator(
                self.service, self.reward_model, agent_id,
                use_cache=cfg.use_cache,
                batch_deadline=cfg.batch_deadline, sink=self.sink)
        clock = lambda: self.sim.now    # noqa: E731 — bound late to sim
        if cfg.backend == "serial":
            return SerialEvaluator(self.reward_model, agent_id,
                                   use_cache=cfg.use_cache, clock=clock,
                                   sink=self.sink)
        if cfg.backend == "thread":
            return ThreadEvaluator(
                self.reward_model, agent_id,
                max_workers=cfg.allocation.workers_per_agent,
                use_cache=cfg.use_cache, clock=clock, sink=self.sink)
        return ProcessEvaluator(self.reward_model, agent_id,
                                config=cfg.proc, use_cache=cfg.use_cache,
                                clock=clock, sink=self.sink)

    def _build_agents(self) -> None:
        """Per-agent evaluator / policy / PPO updater triples."""
        cfg = self.config
        learns = self.proposer.learns
        self.policies: list[LSTMPolicy | None] = []
        self.updaters: list[PPOUpdater | None] = []
        self.evaluators: list[Evaluator] = []
        for agent_id in range(cfg.allocation.num_agents):
            self.evaluators.append(self._build_evaluator(agent_id))
            if not learns:
                self.policies.append(None)
                self.updaters.append(None)
                continue
            policy = LSTMPolicy(self.space.action_dims, seed=cfg.seed)
            self.policies.append(policy)
            self.updaters.append(PPOUpdater(policy, PPOConfig(
                lr=_LR, entropy_coef=cfg.entropy_coef)))

    # ------------------------------------------------------------------
    def request_preemption(self, cause: str = "request") -> None:
        """Ask the search to stop at the next event boundary.

        Safe to call from a signal handler or any thread: it only flips
        a flag; the event loop stops once the agents woken at the
        current instant have run (:meth:`_preempt_settled`), where the
        state is checkpoint-consistent.  ``run()`` then captures a
        resumable checkpoint and returns with ``SearchResult.preempted``.
        """
        self._preempt_cause = cause

    def _install_signal_handlers(self):
        """SIGTERM/SIGINT → graceful preemption (restored after run)."""
        previous = {}

        def handler(signum, frame):
            self.request_preemption(signal.Signals(signum).name)

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(sig, handler)
            except ValueError:
                pass    # not the main thread: run unprotected
        return previous

    def run(self) -> SearchResult:
        try:
            return self._run()
        finally:
            if self.journal is not None:
                self.journal.close()

    def _run(self) -> SearchResult:
        cfg = self.config
        self._emit_counts(RUN, space=self.space.name, method=cfg.method,
                          seed=cfg.seed, backend=cfg.backend,
                          caches=([len(ev.cache) for ev in self.evaluators]
                                  if cfg.use_cache else None),
                          **asdict(cfg.allocation))
        if self.injector is not None:
            self.injector.attach(self.cluster)
        for agent_id in range(cfg.allocation.num_agents):
            if agent_id in self._done_agents:
                continue
            self.sim.process(self._agent(agent_id), name=f"agent{agent_id}")
        previous_handlers = (self._install_signal_handlers()
                             if cfg.preemptible else {})
        try:
            self.sim.run(until=cfg.wall_time,
                         stop=self._preempt_settled
                         if cfg.preemptible else None)
        finally:
            for sig, old in previous_handlers.items():
                signal.signal(sig, old)
        preempted = self._preempt_cause is not None and self._live_agents > 0
        if preempted:
            # agents are parked at yield points; boundary trimming makes
            # the capture resumable from any stop point
            self._capture_checkpoint()
            emit(self.sink, PREEMPT, self.sim.now,
                 cause=self._preempt_cause)
        worker_stats: dict[str, int] = {}
        for ev in self.evaluators:
            ev.shutdown()
            if isinstance(ev, ProcessEvaluator):
                for key, val in ev.stats().items():
                    worker_stats[key] = worker_stats.get(key, 0) + val
        now = self.sim.now
        if self._live_agents == 0 and self._search_end_time is not None:
            # ignore stale timers (retry backoffs, injector repairs)
            # that outlived the last agent
            now = self._search_end_time
        end_time = min(now, cfg.wall_time)
        converged = (self._converged_agents == cfg.allocation.num_agents
                     and end_time < cfg.wall_time)
        unique = len({rec.arch.key for rec in self.records})
        self._emit_counts(RUN_END)
        return SearchResult(cfg, self.records, self.cluster, end_time,
                            converged, unique,
                            failed_agents=list(self._failed_agents),
                            num_failed_evals=sum(ev.num_failed
                                                 for ev in self.evaluators),
                            agent_digests=dict(self._digests),
                            agent_restarts=dict(self._restarts),
                            agent_rollbacks=dict(self._rollbacks),
                            preempted=preempted,
                            worker_stats=worker_stats)

    def _preempt_settled(self) -> bool:
        """``sim.run``'s stop predicate: True once a requested preemption
        may be captured.  The first poll that sees the request schedules
        a zero-delay event, and the run stops once it has fired, as
        :meth:`_maybe_record_checkpoint` defers its capture: a request
        can land just after a sync barrier released (on the serial and
        process backends the releasing agent evaluates its next batch
        within that step), while other woken agents' boundaries still
        point at the applied round."""
        if self._preempt_cause is None:
            return False
        if self._preempt_settle is None:
            self._preempt_settle = self.sim.timeout_event(0.0)
        return self._preempt_settle.triggered

    def _emit_counts(self, kind: str, **payload) -> None:
        """Emit ``kind`` with each agent's record count, as a list (JSON
        turns dict keys into strings, and their sort breaks the CRC)."""
        if self.sink is not None:
            counts = [0] * self.config.allocation.num_agents
            for rec in self.records:
                counts[rec.agent_id] += 1
            emit(self.sink, kind, self.sim.now, records=counts, **payload)

    # -- the agent wrapper ---------------------------------------------
    def _build_loop(self, agent_id: int) -> AgentLoop:
        """Compose one agent *lifetime* from the three seams."""
        cfg = self.config
        updater = self.updaters[agent_id]
        guard = cfg.guard
        guarded = updater is not None and guard is not None and guard.enabled
        record_clock = cfg.checkpoint_every_records is not None
        # boundaries cost a policy/optimizer copy per iteration, so they
        # are captured only when something will read them
        capture = (record_clock or cfg.max_restarts > 0 or cfg.preemptible
                   or self.journal is not None
                   or (guarded and guard.recovers))
        hooks = HookStack([
            BoundaryHook(self._boundaries,
                         capture_lr=guard is not None and guard.recovers,
                         on_boundary=(self._maybe_record_checkpoint
                                      if record_clock else None))
            if capture else None,
            NumericFaultHook(self.injector,
                             self._restarts.get(agent_id, 0))
            if self.injector is not None and updater is not None else None,
            HealthHook(guard, base_lr=_LR, rollbacks=self._rollbacks,
                       boundaries=self._boundaries, sink=self.sink)
            if guarded else None,
        ])
        return AgentLoop(
            sim=self.sim, space=self.space, config=cfg, agent_id=agent_id,
            evaluator=self.evaluators[agent_id],
            policy=self.policies[agent_id], updater=updater,
            proposer=self.proposer, hooks=hooks, records=self.records,
            digests=self._digests, sink=self.sink,
            resume=self._boundaries.get(agent_id))

    def _agent(self, agent_id: int):
        """Crash-safe wrapper: whatever happens inside the agent loop,
        the agent leaves the proposer's exchange cleanly (the sync
        barrier shrinks instead of deadlocking) and the search accounts
        for it.

        With ``max_restarts > 0`` a crashed agent (including one whose
        numerical guard escalated) is *resurrected*: restored to its
        last iteration boundary — the same mechanics checkpoint resume
        uses, applied in-run — and re-registered with the exchange.
        Interrupts (external cancellation) never resurrect.
        """
        cfg = self.config
        converged = False
        restarts_left = cfg.max_restarts
        while True:
            crashed = None
            try:
                converged = yield from self._build_loop(agent_id).run()
            except Interrupt as intr:
                crashed = f"interrupted: {intr.cause}"
                break
            except Exception as exc:    # noqa: BLE001 — surfaced in result
                crashed = f"{type(exc).__name__}: {exc}"
            if crashed is None:
                break
            boundary = self._boundaries.get(agent_id)
            if restarts_left <= 0 or boundary is None \
                    or self.sim.now >= cfg.wall_time:
                break
            restarts_left -= 1
            self._restarts[agent_id] = self._restarts.get(agent_id, 0) + 1
            self._resurrect(agent_id, boundary, crashed)
        self._finish_agent(agent_id, converged, crashed)

    def _finish_agent(self, agent_id: int, converged: bool,
                      crashed: str | None) -> None:
        """Final accounting for a permanently stopped agent."""
        if crashed is not None:
            self._failed_agents.append((agent_id, crashed))
            emit(self.sink, CRASH, self.sim.now, agent_id, cause=crashed)
        self._done_agents[agent_id] = bool(converged)
        if converged:
            self._converged_agents += 1
        self.proposer.leave(failed=crashed is not None)
        self._boundaries.pop(agent_id, None)
        emit(self.sink, AGENT_DONE, self.sim.now, agent_id,
             converged=bool(converged))
        self._live_agents -= 1
        if self._live_agents == 0:
            self._search_end_time = self.sim.now
            if self.injector is not None:
                self.injector.stop()

    def _resurrect(self, agent_id: int, boundary: AgentBoundary,
                   cause: str) -> None:
        """Restore a crashed agent to its last iteration boundary.

        The crashed lifetime leaves the exchange first
        (``leave(failed=True)`` — exactly what a permanent death does,
        so a mid-round crash can never deadlock the others), then the
        fresh lifetime rejoins; ``rejoin`` withdraws any pending push
        the dead lifetime left in the current sync round, and never
        releases a round itself, so the crash/resurrect pair cannot
        double-release a barrier.
        """
        self.proposer.leave(failed=True)
        # trimmed in place: every live agent loop appends to this list
        self.records[:] = trim_to_boundaries(
            self.records, {agent_id: boundary.num_records})
        # shared-history proposers re-fold their state from the kept
        # records (the records ARE the history; see proposer.rebuild)
        self.proposer.rebuild(self.records)
        self._restore_agent_state(agent_id, boundary)
        self.proposer.rejoin(agent_id)
        # real_evals and num_records tell the journal's replay and record
        # rebuild (repro.search.journal) how far to cut this agent's
        # events — the journal-side mirrors of the record trimming above
        emit(self.sink, RESTART, self.sim.now, agent_id,
             boundary.iteration, cause=cause,
             real_evals=boundary.num_submitted - boundary.num_cache_hits,
             num_records=boundary.num_records)

    def _restore_agent_state(self, agent_id: int,
                             boundary: AgentBoundary) -> None:
        """Rewind one agent's evaluator/policy/optimizer to a boundary
        and make it the agent's current boundary (shared by in-run
        resurrection and checkpoint restore).

        The agent's next lifetime resumes from it, and until that
        lifetime's first iteration start replaces it, it is what a
        checkpoint captures and what a crash resurrects from — a
        resumed agent still asleep towards its boundary time is
        checkpointed at that boundary, not dropped.
        """
        self.evaluators[agent_id].restore_counters(
            boundary.num_submitted, boundary.num_cache_hits,
            boundary.num_failed)
        updater = self.updaters[agent_id]
        restore_boundary(boundary, self.policies[agent_id],
                         None if updater is None else updater.optimizer)
        self._boundaries[agent_id] = boundary

    # -- checkpointing --------------------------------------------------
    def _maybe_record_checkpoint(self) -> None:
        """Record-count trigger (fires from :class:`BoundaryHook` at an
        iteration start, once the boundary is stored).

        The capture itself is *deferred* to a fresh zero-delay sim
        process rather than taken inline: the triggering agent's hook
        can run inside the zero-duration window after a sync barrier
        released but before the other woken agents executed their own
        iteration starts — their boundaries would still point at the
        round the exported exchange state has already applied, and the
        resume would push that round twice.  A process scheduled *now*
        gets a later sequence number than every already-queued wakeup,
        so by the time it runs each agent is parked at a yield point
        with a fresh boundary — the same globally consistent state a
        preemption captures.
        """
        every = self.config.checkpoint_every_records
        if self._record_ckpt_pending \
                or len(self.records) - self._records_at_ckpt < every:
            return
        self._record_ckpt_pending = True
        self.sim.process(self._record_checkpoint_proc(), name="record-ckpt")

    def _record_checkpoint_proc(self):
        try:
            # re-check: a resurrection in this same instant may have
            # trimmed the records back below the threshold
            every = self.config.checkpoint_every_records
            if len(self.records) - self._records_at_ckpt >= every:
                self._capture_checkpoint()
        finally:
            self._record_ckpt_pending = False
        return
        yield   # pragma: no cover — generator so sim.process can run it

    def _capture_checkpoint(self) -> SearchCheckpoint:
        """Snapshot the search into a :class:`SearchCheckpoint`."""
        cfg = self.config
        agents = []
        for agent_id in range(cfg.allocation.num_agents):
            ev = self.evaluators[agent_id]
            if agent_id in self._done_agents:
                entries = (ev.cache.snapshot()
                           if ev.cache is not None else [])
                agents.append(AgentCheckpoint(
                    agent_id, done=True,
                    converged=self._done_agents[agent_id],
                    boundary=None, cache_entries=entries,
                    traj_digest=self._digests.get(agent_id)))
                continue
            boundary = self._boundaries.get(agent_id)
            if boundary is None:
                # agent spawned but still in its startup stagger: resume
                # will simply start it fresh (deterministically equal)
                agents.append(AgentCheckpoint(
                    agent_id, done=False, converged=False, boundary=None))
                continue
            entries = (ev.cache.snapshot(boundary.cache_len)
                       if ev.cache is not None else [])
            agents.append(AgentCheckpoint(
                agent_id, done=False, converged=False,
                boundary=boundary, cache_entries=entries))

        # process-backend poison records survive the restart, so a
        # resumed search never re-feeds a known worker-killer to the
        # fresh pool (empty for every other backend)
        quarantine = {}
        for agent_id in range(cfg.allocation.num_agents):
            ev = self.evaluators[agent_id]
            if isinstance(ev, ProcessEvaluator) and ev.quarantined:
                quarantine[agent_id] = ev.quarantine_snapshot()

        ckpt = SearchCheckpoint(
            time=self.sim.now, seed=cfg.seed, method=cfg.method,
            space_name=self.space.name,
            num_agents=cfg.allocation.num_agents,
            wall_time=cfg.wall_time,
            records=list(self.records), agents=agents,
            ps_state=self.proposer.export_state(),
            converged_agents=self._converged_agents,
            failed_agents=list(self._failed_agents),
            agent_restarts=dict(self._restarts),
            agent_rollbacks=dict(self._rollbacks),
            quarantine=quarantine)
        self.checkpoints.append(ckpt)
        self._records_at_ckpt = len(self.records)
        if self.journal is not None:
            self.journal.save_checkpoint(ckpt)
        emit(self.sink, CHECKPOINT, self.sim.now,
             num_records=len(ckpt.records))
        return ckpt

    def _validate_checkpoint(self, ckpt: SearchCheckpoint) -> None:
        cfg = self.config
        if ckpt.num_agents != cfg.allocation.num_agents:
            raise ValueError(
                f"checkpoint has {ckpt.num_agents} agents, config has "
                f"{cfg.allocation.num_agents}")
        if ckpt.method != cfg.method:
            raise ValueError(
                f"checkpoint method {ckpt.method!r} != config "
                f"{cfg.method!r}")
        if ckpt.space_name != self.space.name:
            raise ValueError(
                f"checkpoint space {ckpt.space_name!r} != "
                f"{self.space.name!r}")
        if ckpt.seed != cfg.seed:
            raise ValueError(
                f"checkpoint seed {ckpt.seed} != config seed {cfg.seed}; "
                f"deterministic resume requires the same seed")

    def _apply_checkpoint(self, ckpt: SearchCheckpoint) -> None:
        self._validate_checkpoint(ckpt)
        # a sync agent parked at the barrier has already recorded its
        # in-flight iteration
        self.records = trim_to_boundaries(
            ckpt.records, {a.agent_id: a.boundary.num_records
                           for a in ckpt.agents
                           if not a.done and a.boundary is not None})
        # shared-history proposers re-fold their state from the kept
        # records; each resuming agent's first proposal then reads up to
        # its boundary's proposer_seen watermark
        self.proposer.rebuild(self.records)
        self._converged_agents = ckpt.converged_agents
        self._failed_agents = [tuple(fa) for fa in ckpt.failed_agents]
        self._restarts = dict(ckpt.agent_restarts)
        self._rollbacks = dict(ckpt.agent_rollbacks)
        for agent_id, entries in ckpt.quarantine.items():
            ev = self.evaluators[agent_id]
            if isinstance(ev, ProcessEvaluator):
                ev.restore_quarantine(entries)
        for agent in ckpt.agents:
            ev = self.evaluators[agent.agent_id]
            if ev.cache is not None and agent.cache_entries:
                ev.cache.restore(agent.cache_entries)
            if agent.done:
                self._done_agents[agent.agent_id] = agent.converged
                if agent.traj_digest:
                    self._digests[agent.agent_id] = agent.traj_digest
                continue
            if agent.boundary is None:
                continue            # starts fresh, deterministically
            self._restore_agent_state(agent.agent_id, agent.boundary)
        self.proposer.restore_state(ckpt.ps_state)
        self._records_at_ckpt = len(self.records)


def run_search(space: Structure, reward_model: RewardModel,
               config: SearchConfig | None = None) -> SearchResult:
    """Convenience one-call search run."""
    return NasSearch(space, reward_model, config).run()
