"""Health monitoring and self-healing for long-horizon NAS runs.

The paper's searches run A3C/PPO for hours across up to 1,024 nodes.  At
that horizon a single non-finite gradient, a diverging agent, or a
corrupted exchange delta silently poisons the *shared* policy for every
other agent — a failure mode the infrastructure fault layer
(:mod:`repro.hpc.faults`: node crashes, retries, checkpoint/resume) does
not cover.  This package is the numerical counterpart:

* :mod:`repro.health.guards` — opt-in detection: blockwise finite
  checks, EWMA loss-spike z-scores, PPO approx-KL / ratio divergence
  limits (module constants), switched by :class:`GuardConfig`'s
  three-position ``mode`` (``off`` / ``check`` / ``recover``);
* :mod:`repro.health.recovery` — automatic recovery: rollback to the
  agent's last iteration boundary with learning-rate backoff,
  escalation to agent resurrection, and parameter-server delta
  sanitization.

Invariant: with ``mode="check"`` (or ``"recover"``) and no anomaly
firing, every guarded code path is bit-identical to ``mode="off"`` —
guards observe, they never perturb.  See ``docs/robustness.md``.
"""

from .guards import (GUARD_MODES, GuardConfig, LossSpikeDetector,
                     NumericalAnomaly, PPODivergenceDetector, all_finite,
                     require_finite)
from .recovery import AgentHealth, DeltaSanitizer

__all__ = ["GUARD_MODES", "GuardConfig", "NumericalAnomaly", "all_finite",
           "require_finite", "LossSpikeDetector", "PPODivergenceDetector",
           "AgentHealth", "DeltaSanitizer"]
