"""Lifecycle hooks: how cross-cutting layers attach to the agent loop.

The agent loop (:mod:`repro.search.loop`) is deliberately ignorant of
checkpointing, chaos, and health monitoring.  Each of those concerns is
one :class:`LifecycleHooks` implementation composed into a
:class:`HookStack` per agent *lifetime* (a resurrection builds a fresh
stack, matching the per-lifetime semantics of rollback budgets and the
restart-keyed numeric fault draw):

* :class:`BoundaryHook` — captures the iteration boundary, the one
  snapshot that checkpoint capture and apply, in-run resurrection and
  health rollback read, and fires the record-count checkpoint trigger;
* :class:`NumericFaultHook` — chaos-layer numerical fault injection
  (NaN gradients, exploding losses, in-flight delta corruption);
* :class:`HealthHook` — the :mod:`repro.health` guard/rollback layer.

Hook order in the stack is semantic: faults are injected *before* the
health check so the guards see (and may undo) the corruption, exactly
as the inline pre-refactor code behaved.
"""

from __future__ import annotations

import copy

import numpy as np

from ..events import ROLLBACK, EventSink, emit
from ..health.guards import GuardConfig, NumericalAnomaly
from ..health.recovery import AgentHealth
from ..hpc.faults import FaultInjector
from .checkpoint import AgentBoundary, restore_boundary

__all__ = ["LifecycleHooks", "HookStack", "BoundaryHook",
           "NumericFaultHook", "HealthHook"]

#: magnitude multiplier of an exploding-loss fault
_EXPLODING_FACTOR = 1e6


class LifecycleHooks:
    """Observer/transformer protocol around one loop iteration.

    Every method defaults to a no-op; ``loop`` is the calling
    :class:`~repro.search.loop.AgentLoop`, whose public attributes
    (``iteration``, ``policy``, ``updater``, ``digest``, ...) are the
    hook's view of agent state.
    """

    def on_iteration_start(self, loop) -> None:
        """Top of the iteration, before sampling."""

    def after_update(self, loop, delta: np.ndarray, push_delta: np.ndarray,
                     stats) -> tuple[np.ndarray, np.ndarray]:
        """Transform ``(local delta, delta pushed to the exchange)``.

        Returning the pair unchanged is the identity hook; raising
        crashes the agent (the runner's wrapper takes it from there).
        """
        return delta, push_delta


class HookStack(LifecycleHooks):
    """Runs hooks in order; ``after_update`` threads the delta pair."""

    def __init__(self, hooks) -> None:
        self.hooks = [h for h in hooks if h is not None]

    def on_iteration_start(self, loop) -> None:
        for hook in self.hooks:
            hook.on_iteration_start(loop)

    def after_update(self, loop, delta, push_delta, stats):
        for hook in self.hooks:
            delta, push_delta = hook.after_update(loop, delta, push_delta,
                                                  stats)
        return delta, push_delta


class BoundaryHook(LifecycleHooks):
    """Captures the agent's iteration boundary into a shared store.

    The boundary is everything a fresh lifetime needs to replay from
    this exact point — RNG state, policy/optimizer vectors, counters,
    digest.  It is also the pre-update state of the iteration, so the
    recover-mode health layer rolls a poisoned update back to it.
    ``capture_lr`` additionally records the (possibly backed-off)
    learning rate when that layer is on.

    ``on_boundary`` (the runner's record-count checkpoint trigger,
    ``SearchConfig.checkpoint_every_records``) runs once the boundary
    is stored.  Counting reward records is a clock that works on every
    backend, including real ones that never advance virtual time.  The
    callback only *triggers*: the runner defers the capture itself to a
    zero-delay sim process (``NasSearch._maybe_record_checkpoint``
    explains why capturing inline here would tear a sync exchange round
    in half).
    """

    def __init__(self, store: dict, capture_lr: bool = False,
                 on_boundary=None) -> None:
        self.store = store
        self.capture_lr = capture_lr
        self.on_boundary = on_boundary

    def on_iteration_start(self, loop) -> None:
        evaluator, updater = loop.evaluator, loop.updater
        self.store[loop.agent_id] = AgentBoundary(
            time=loop.sim.now, iteration=loop.iteration,
            rng_state=copy.deepcopy(loop.rng.bit_generator.state),
            policy_flat=(None if loop.policy is None
                         else loop.policy.get_flat()),
            opt_state=(None if updater is None
                       else updater.optimizer.export_state()),
            consecutive_cached=loop.consecutive_cached,
            cache_len=(len(evaluator.cache)
                       if evaluator.cache is not None else 0),
            num_records=loop.num_records,
            num_submitted=evaluator.num_submitted,
            num_cache_hits=evaluator.num_cache_hits,
            num_failed=evaluator.num_failed,
            traj_digest=loop.digest,
            lr=(updater.optimizer.lr
                if updater is not None and self.capture_lr else None),
            proposer_seen=loop.proposer.seen())
        if self.on_boundary is not None:
            self.on_boundary()


class NumericFaultHook(LifecycleHooks):
    """Chaos layer: applies this iteration's numerical fault draw.

    The draw is a pure function of ``(seed, agent, iteration,
    attempt)`` — ``attempt`` is the lifetime's restart count, constant
    within a lifetime, so the hook is built per lifetime.
    """

    def __init__(self, injector: FaultInjector, attempt: int) -> None:
        self.injector = injector
        self.attempt = attempt

    def after_update(self, loop, delta, push_delta, stats):
        fault = self.injector.numeric_fault(loop.agent_id, loop.iteration,
                                            self.attempt)
        if fault is None or fault.none:
            return delta, push_delta
        self.injector.num_numeric_faults += 1
        if fault.nan_grad:
            # a corrupted gradient buffer: the local update (already
            # applied by update_delta) and its delta both carry NaN
            poison = np.zeros_like(delta)
            poison[0] = np.nan
            loop.policy.add_flat(poison)
            delta = delta.copy()
            delta[0] = np.nan
            return delta, delta
        if fault.exploding_loss:
            # a diverged local policy: the update direction is real but
            # enormously overscaled
            loop.policy.add_flat(delta * (_EXPLODING_FACTOR - 1.0))
            delta = delta * _EXPLODING_FACTOR
            return delta, delta
        # corrupt_delta: corruption in flight — the local policy stays
        # healthy, only the copy pushed to the parameter server is bad
        push_delta = delta.copy()
        push_delta[0] = np.nan
        return delta, push_delta


class HealthHook(LifecycleHooks):
    """Health layer: check each update, and on a numerical anomaly roll
    back to the agent's current iteration boundary (or crash, in check
    mode).

    ``boundaries`` is the runner's store that :class:`BoundaryHook`
    fills at each iteration start.  Nothing moves the policy or the
    optimizer between that point and the update, so the boundary is the
    last known good state, and restoring it undoes a poisoned update
    exactly.  One instance per agent lifetime, like the
    :class:`AgentHealth` it wraps — rollback budgets are per-lifetime by
    design.
    """

    def __init__(self, guard: GuardConfig, base_lr: float,
                 rollbacks: dict, boundaries: dict,
                 sink: EventSink | None = None) -> None:
        self.guard = guard
        self.health = AgentHealth(base_lr)
        self.rollbacks = rollbacks      # shared agent_id -> count store
        self.boundaries = boundaries    # shared agent_id -> AgentBoundary
        self.sink = sink

    def after_update(self, loop, delta, push_delta, stats):
        anomaly = self.health.check_update(loop.policy.get_flat(), delta,
                                           stats)
        if anomaly is None:
            return delta, push_delta
        if not self.guard.recovers:
            # check mode: crash the agent; the runner's wrapper
            # resurrects it (or reports it) from there
            raise NumericalAnomaly(anomaly, f"agent{loop.agent_id}",
                                   "numerical guard tripped (mode=check)")
        # recover mode: restore the iteration boundary, then back off
        # the LR (escalates to a crash once the lifetime budget is spent)
        optimizer = loop.updater.optimizer
        restore_boundary(self.boundaries[loop.agent_id], loop.policy,
                         optimizer)
        self.health.rollback(optimizer)
        self.rollbacks[loop.agent_id] = \
            self.rollbacks.get(loop.agent_id, 0) + 1
        emit(self.sink, ROLLBACK, loop.sim.now, loop.agent_id,
             loop.iteration, anomaly=anomaly)
        # the poisoned local step is undone; contribute nothing to the
        # exchange this iteration
        delta = np.zeros_like(delta)
        return delta, delta
