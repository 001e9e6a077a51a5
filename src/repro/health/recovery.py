"""Recovery actuators: rollback budget, learning-rate backoff, delta
hygiene.

Where :mod:`repro.health.guards` only observes, this module acts.  Two
actuators implement the self-healing ladder:

* :class:`AgentHealth` — one agent's monitor + actuator.  It runs the
  detectors over each update, and in ``recover`` mode backs off the
  learning rate each time the caller has rolled the policy and Adam
  moments back to the last known good state (the search restores the
  agent's iteration boundary, taken before the update).  An agent whose
  lifetime accumulates :data:`~repro.health.guards.ESCALATE_AFTER`
  rollbacks is declared beyond local repair and escalates with
  :class:`~repro.health.guards.NumericalAnomaly` — the search runner
  then resurrects it from that same boundary.
* :class:`DeltaSanitizer` — parameter-server ingress hygiene: rejects
  non-finite deltas outright and, once an EWMA of accepted-delta norms
  is warmed up, rejects norm outliers (a diverging agent's update must
  not be averaged into everyone else's policy).  Pure observation on the
  accept path: accepted deltas are passed through bit-unchanged.
"""

from __future__ import annotations

import numpy as np

from .guards import (DELTA_EWMA_ALPHA, DELTA_NORM_FACTOR, DELTA_WARMUP,
                     ESCALATE_AFTER, LR_BACKOFF, MIN_LR_FRACTION,
                     LossSpikeDetector, NumericalAnomaly,
                     PPODivergenceDetector, all_finite)

__all__ = ["AgentHealth", "DeltaSanitizer"]


class AgentHealth:
    """Numerical-health monitor and recovery actuator for one agent.

    Lifecycle per search iteration::

        delta, stats = updater.update_delta(rollout, rewards)
        anomaly = health.check_update(policy.get_flat(), delta, stats)
        if anomaly:             # recover mode
            restore_boundary(boundary, policy, updater.optimizer)
            health.rollback(updater.optimizer)           # may escalate

    ``check_update`` is pure observation.  ``rollback`` multiplies the
    just-restored optimizer's learning rate by
    :data:`~repro.health.guards.LR_BACKOFF` (floored at
    :data:`~repro.health.guards.MIN_LR_FRACTION` of ``base_lr``), and
    raises :class:`NumericalAnomaly` once this lifetime has used up its
    rollback budget.
    """

    def __init__(self, base_lr: float) -> None:
        self.base_lr = float(base_lr)
        self.loss_detector = LossSpikeDetector()
        self.ppo_detector = PPODivergenceDetector()
        # local update-direction hygiene: same EWMA-norm screen the
        # parameter server applies to incoming deltas, so an exploding
        # (finite but huge) local update is caught before it is pushed
        self.delta_check = DeltaSanitizer()
        self.num_rollbacks = 0
        self.last_anomaly: str | None = None

    def check_update(self, policy_flat: np.ndarray, delta: np.ndarray,
                     stats=None) -> str | None:
        """Inspect one finished PPO update; returns the anomaly kind or
        ``None``.  Detection order: non-finite state first (cheap and
        unambiguous), then divergence statistics, then the loss-spike
        EWMA (which self-updates only on healthy observations)."""
        reason = self.delta_check.check(delta)
        if reason == "nonfinite":
            self.last_anomaly = "nonfinite:delta"
            return self.last_anomaly
        if reason == "outlier":
            self.last_anomaly = "delta_outlier:delta"
            return self.last_anomaly
        if not all_finite(policy_flat):
            self.last_anomaly = "nonfinite:policy"
            return self.last_anomaly
        if stats is not None:
            kind = self.ppo_detector.check(stats)
            if kind is not None:
                self.last_anomaly = f"{kind}:ppo"
                return self.last_anomaly
            if self.loss_detector.observe(stats.policy_loss
                                          + stats.value_loss):
                self.last_anomaly = "loss_spike:ppo"
                return self.last_anomaly
        self.last_anomaly = None
        return None

    def rollback(self, optimizer) -> float:
        """Count one rollback of a policy the caller has just restored
        and back off ``optimizer``'s learning rate; returns the new
        rate.  Escalates with :class:`NumericalAnomaly` when the
        lifetime rollback budget is spent."""
        if self.num_rollbacks + 1 >= ESCALATE_AFTER:
            raise NumericalAnomaly(
                "rollback_exhausted", "agent",
                f"{self.num_rollbacks + 1} rollbacks this lifetime "
                f"(last anomaly: {self.last_anomaly})")
        floor = self.base_lr * MIN_LR_FRACTION
        optimizer.lr = max(optimizer.lr * LR_BACKOFF, floor)
        self.num_rollbacks += 1
        return optimizer.lr


class DeltaSanitizer:
    """Parameter-server ingress hygiene for exchanged update deltas.

    ``check`` returns ``None`` to accept a delta (and folds its norm
    into the EWMA baseline) or a rejection reason: ``"nonfinite"`` for
    NaN/Inf entries, ``"outlier"`` for a norm more than
    :data:`~repro.health.guards.DELTA_NORM_FACTOR` x the EWMA of
    accepted norms once :data:`~repro.health.guards.DELTA_WARMUP`
    accepted pushes have seeded the baseline.  Rejection counters are
    public and exported/restored with parameter-server checkpoints.
    """

    def __init__(self) -> None:
        self.accepted = 0
        self.ewma_norm = 0.0
        self.num_rejected_nonfinite = 0
        self.num_rejected_outlier = 0

    @property
    def num_rejected(self) -> int:
        return self.num_rejected_nonfinite + self.num_rejected_outlier

    def check(self, delta: np.ndarray) -> str | None:
        """Accept (``None``) or give the rejection reason for ``delta``."""
        if not all_finite(delta):
            self.num_rejected_nonfinite += 1
            return "nonfinite"
        norm = float(np.linalg.norm(delta))
        if (self.accepted >= DELTA_WARMUP
                and norm > DELTA_NORM_FACTOR * max(self.ewma_norm, 1e-12)):
            self.num_rejected_outlier += 1
            return "outlier"
        if self.accepted == 0:
            self.ewma_norm = norm
        else:
            self.ewma_norm += DELTA_EWMA_ALPHA * (norm - self.ewma_norm)
        self.accepted += 1
        return None

    # -- checkpoint support --------------------------------------------
    def export_state(self) -> dict:
        return {"accepted": self.accepted, "ewma_norm": self.ewma_norm,
                "num_rejected_nonfinite": self.num_rejected_nonfinite,
                "num_rejected_outlier": self.num_rejected_outlier}

    def restore_state(self, state: dict) -> None:
        self.accepted = int(state["accepted"])
        self.ewma_norm = float(state["ewma_norm"])
        self.num_rejected_nonfinite = int(
            state.get("num_rejected_nonfinite", 0))
        self.num_rejected_outlier = int(state.get("num_rejected_outlier", 0))
