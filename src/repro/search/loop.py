"""The agent loop (§3.2): one agent's propose → evaluate → observe
cycle, composed from the runtime seams.

:class:`AgentLoop` is a coroutine over the discrete-event kernel.  It
knows *nothing* about how architectures are chosen, learned from or
shared between agents (the :class:`~repro.search.proposer.Proposer`
does — the RL methods' policy proposer runs the parameter-server
exchange behind that seam), nothing about cache or failure
bookkeeping (the :class:`~repro.evaluator.base.Evaluator` does), and
nothing about checkpoints, chaos, or health guards (the
:class:`~repro.search.hooks.LifecycleHooks` stack does).  One instance
drives one agent *lifetime*; the runner builds a fresh loop when it
resurrects a crashed agent or resumes from a checkpoint, handing it the
recorded :class:`~repro.search.checkpoint.AgentBoundary` as ``resume``.

Determinism: the loop reproduces the pre-refactor iteration byte for
byte — same RNG draws, same simulator yields, same digest chaining —
which is what keeps search fingerprints bit-identical across the
refactor.  For shared-history proposers the boundary's
``proposer_seen`` watermark pins the history prefix the restarted
iteration's proposal may read, so resume re-proposes the in-flight
batch exactly.
"""

from __future__ import annotations

import copy

import numpy as np

from ..events import BATCH_RECORDED, emit
from ..hpc.sim import Timeout
from ..verify.fingerprint import agent_genesis, chain_step
from .base import RewardRecord

__all__ = ["AgentLoop"]


class AgentLoop:
    """One agent lifetime over simulator ``sim``.

    The loop appends to the runner-owned ``records`` list and
    ``digests`` dict in place, preserving the global interleaving that
    the trajectory fingerprint hashes, and marks each append with a
    ``batch-recorded`` event on ``sink``.
    """

    def __init__(self, *, sim, space, config, agent_id, evaluator, policy,
                 updater, proposer, hooks, records, digests, sink=None,
                 resume=None) -> None:
        self.sim = sim
        self.space = space
        self.config = config
        self.agent_id = agent_id
        self.evaluator = evaluator
        self.policy = policy
        self.updater = updater
        self.proposer = proposer
        self.hooks = hooks
        self.records = records
        self.digests = digests
        self.sink = sink
        self.resume = resume
        self.batch = config.allocation.workers_per_agent
        # live per-lifetime state (hooks read these)
        self.rng: np.random.Generator | None = None
        self.iteration = 0
        self.consecutive_cached = 0
        self.num_records = 0
        self.digest: str | None = None
        self.converged = False
        # history watermark for the first post-resume proposal only
        self._resume_seen: int | None = None

    # ------------------------------------------------------------------
    def run(self):
        """The agent coroutine; returns True iff the agent converged."""
        cfg = self.config
        yield from self._startup()
        while self.sim.now < cfg.wall_time and \
                (cfg.max_iterations is None
                 or self.iteration < cfg.max_iterations):
            self.hooks.on_iteration_start(self)
            actions = self._sample()
            rewards = yield from self._evaluate(actions)
            yield from self.proposer.observe(self, actions, rewards)
            self._advance(actions, rewards)
            if self.converged:
                break
        return self.converged

    # ------------------------------------------------------------------
    def _startup(self):
        """Seed the lifetime's RNG and take the initial timeout."""
        cfg, resume = self.config, self.resume
        if resume is not None:
            # restart at the recorded iteration boundary: restored RNG,
            # policy, and history watermark re-generate the in-flight
            # batch exactly.  For checkpoint resume sim.now is 0 and
            # this sleeps to the boundary time; for in-run resurrection
            # the boundary is in the past and the agent restarts
            # immediately.
            rng = np.random.default_rng(0)
            rng.bit_generator.state = copy.deepcopy(resume.rng_state)
            self.rng = rng
            self.consecutive_cached = resume.consecutive_cached
            self.iteration = resume.iteration
            self.num_records = resume.num_records
            self._resume_seen = resume.proposer_seen
            self.digest = (resume.traj_digest
                           or agent_genesis(cfg.seed, self.agent_id))
            self.digests[self.agent_id] = self.digest
            yield Timeout(max(0.0, resume.time - self.sim.now))
        else:
            self.rng = np.random.default_rng((cfg.seed, self.agent_id,
                                              0xA6E))
            self.digest = agent_genesis(cfg.seed, self.agent_id)
            self.digests[self.agent_id] = self.digest
            # stagger startup slightly so same-instant submissions don't
            # all carry identical timestamps (and to model ramp-up)
            yield Timeout(self.rng.uniform(0.0, 2.0))

    def _sample(self):
        """Draw this iteration's batch of architecture action rows."""
        seen, self._resume_seen = self._resume_seen, None
        return self.proposer.propose(self, seen)

    def _evaluate(self, actions):
        """Submit the batch, wait for it, and log aligned rewards."""
        archs = [self.space.decode(row) for row in actions]
        batch_done = self.evaluator.add_eval_batch(archs)
        if batch_done is None:
            # real backend (serial/thread/process): completion is a
            # blocking wait in host time, then a zero-length sim step so
            # the kernel sees a yield (it rejects bare None) and the
            # scheduler keeps interleaving agents at this boundary
            self.evaluator.wait_all()
            batch_done = Timeout(0.0)
        yield batch_done
        recs = self.evaluator.get_finished_evals()
        # align rewards with the rollout's row order: row i takes
        # completion order[i], the first unclaimed one of its key
        by_key: dict[tuple, list] = {}
        for j, rec in enumerate(recs):
            by_key.setdefault(rec.arch.key, []).append(j)
        rewards = np.empty(len(archs))
        order = [by_key[arch.key].pop(0) for arch in archs]
        for i, j in enumerate(order):
            rec = recs[j]
            rewards[i] = rec.reward
            self.records.append(RewardRecord(
                rec.end_time, self.agent_id, rec.arch, rec.reward,
                rec.result.params, rec.result.duration, rec.cached,
                rec.result.timed_out))
        self.num_records += len(order)
        # the journal builds these records here, in this order
        # (repro.search.journal.read_records); completions arrive in row
        # order on the serial backend, so the map is usually left out
        emit(self.sink, BATCH_RECORDED, self.sim.now, self.agent_id,
             self.iteration, **({} if order == list(range(len(recs)))
                                else {"order": order}))
        return rewards

    def _advance(self, actions, rewards):
        """Chain the digest, track convergence, close the iteration."""
        self.digest = chain_step(self.digest, actions, rewards,
                                 None if self.policy is None
                                 else self.policy.get_flat())
        self.digests[self.agent_id] = self.digest
        if self.evaluator.last_batch_all_cached:
            self.consecutive_cached += 1
        else:
            self.consecutive_cached = 0
        self.iteration += 1
        if self.consecutive_cached >= self.config.convergence_patience:
            self.converged = True
