"""Numerical-health guards: finite checks, spike and divergence detectors.

Everything in this module *observes* — nothing here mutates the values it
inspects, draws from a random stream, or otherwise perturbs the
computation.  That is a hard requirement: a search run with guards
enabled but no anomaly firing must stay bit-identical to a run with
guards off (asserted by the fingerprint tests), so detection has to be a
pure read of the numbers flowing past.

Three families of guard live here:

* :func:`all_finite` / :func:`require_finite` — blockwise non-finite
  scans over policy vectors and exchange deltas.
  Blockwise so a poisoned entry near the front of a large array is found
  without scanning the rest.
* :class:`LossSpikeDetector` — an EWMA mean/variance tracker over a
  scalar loss stream; a z-score above :data:`LOSS_SPIKE_ZSCORE` flags a
  spike.  Spiking observations are excluded from the running statistics
  so one blow-up cannot drag the baseline after it.
* :class:`PPODivergenceDetector` — stateless limits on the PPO update's
  approximate KL and probability-ratio extremes (an off-policy update
  whose ratios explode is diverging even while every number is finite).

:class:`GuardConfig` holds the guard ``mode``: ``"off"`` (inert),
``"check"`` (detect and raise :class:`NumericalAnomaly` — fail fast,
surface the anomaly), or ``"recover"`` (detect and roll back; see
:mod:`repro.health.recovery`).  The thresholds of both modules are the
constants below.

All detectors are calibrated to be silent on healthy training: the loss
z-score threshold is far outside ordinary batch-to-batch noise, and the
KL/ratio limits are an order of magnitude beyond what a clipped PPO
update produces.  They trade detection latency for a near-zero
false-positive rate — a guard that fires on healthy runs would *break*
determinism instead of protecting it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GUARD_MODES", "GuardConfig", "NumericalAnomaly", "all_finite",
           "require_finite", "LossSpikeDetector", "PPODivergenceDetector"]

GUARD_MODES = ("off", "check", "recover")

#: block length of the incremental finite scan (64k doubles = 512 KiB)
_BLOCK = 1 << 16

#: loss-spike detector: z-score threshold, EWMA smoothing, and how many
#: observations seed the statistics before detection arms
LOSS_SPIKE_ZSCORE = 8.0
LOSS_EWMA_ALPHA = 0.2
LOSS_WARMUP = 5
#: PPO divergence: approximate-KL limit and probability-ratio bound
KL_LIMIT = 1.0
RATIO_LIMIT = 50.0
#: delta hygiene (:class:`~repro.health.recovery.DeltaSanitizer`):
#: reject deltas whose L2 norm exceeds DELTA_NORM_FACTOR x the EWMA of
#: accepted norms, once DELTA_WARMUP pushes have been accepted
DELTA_NORM_FACTOR = 50.0
DELTA_WARMUP = 8
DELTA_EWMA_ALPHA = 0.2
#: recovery (:class:`~repro.health.recovery.AgentHealth`): learning-rate
#: multiplier per rollback, its floor as a fraction of the base rate,
#: and the rollback count at which one agent lifetime escalates to a
#: restart (2: a lifetime absorbs one rollback)
LR_BACKOFF = 0.5
MIN_LR_FRACTION = 1.0 / 64.0
ESCALATE_AFTER = 2


class NumericalAnomaly(Exception):
    """A numerical-health guard fired.

    ``kind`` is a stable machine-readable tag (``"nonfinite"``,
    ``"loss_spike"``, ``"kl_divergence"``, ``"ratio_blowup"``,
    ``"rollback_exhausted"``); ``what`` names the tensor or statistic
    that tripped it.
    """

    def __init__(self, kind: str, what: str, detail: str = "") -> None:
        self.kind = kind
        self.what = what
        self.detail = detail
        msg = f"{kind} in {what}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass(frozen=True)
class GuardConfig:
    """Mode of the numerical-health layer: ``"off"``, ``"check"`` or
    ``"recover"`` (see the module docstring)."""

    mode: str = "off"

    def __post_init__(self) -> None:
        if self.mode not in GUARD_MODES:
            raise ValueError(
                f"guard mode must be one of {GUARD_MODES}, got {self.mode!r}")

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def recovers(self) -> bool:
        return self.mode == "recover"


def all_finite(arr: np.ndarray, block: int = _BLOCK) -> bool:
    """Blockwise non-finite scan; ``True`` iff every entry is finite.

    Scans ``block`` entries at a time so a poisoned value early in a
    large array short-circuits the check instead of paying a full pass.
    """
    flat = np.asarray(arr).reshape(-1)
    n = flat.size
    if n <= block:
        return bool(np.isfinite(flat).all())
    for lo in range(0, n, block):
        if not np.isfinite(flat[lo:lo + block]).all():
            return False
    return True


def require_finite(arr: np.ndarray, what: str) -> None:
    """Raise :class:`NumericalAnomaly` if ``arr`` has a NaN/Inf entry."""
    if not all_finite(arr):
        raise NumericalAnomaly("nonfinite", what)


class LossSpikeDetector:
    """EWMA z-score spike detection over a scalar loss stream.

    Tracks an exponentially weighted mean and variance of observed
    losses.  After :data:`LOSS_WARMUP` observations, a loss more than
    :data:`LOSS_SPIKE_ZSCORE` estimated standard deviations above the
    mean — or a non-finite loss at any point — is flagged as a spike.
    Spikes are *not* folded into the running statistics, so a blow-up
    cannot normalize itself.
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.var = 0.0
        self.num_spikes = 0

    def observe(self, loss: float) -> bool:
        """Feed one loss; returns ``True`` if it is a spike."""
        loss = float(loss)
        if not np.isfinite(loss):
            self.num_spikes += 1
            return True
        if self.count >= LOSS_WARMUP:
            std = float(np.sqrt(self.var)) + 1e-12
            if (loss - self.mean) / std > LOSS_SPIKE_ZSCORE:
                self.num_spikes += 1
                return True
        if self.count == 0:
            self.mean = loss
            self.var = 0.0
        else:
            a = LOSS_EWMA_ALPHA
            diff = loss - self.mean
            # EW mean/variance (West 1979 incremental form)
            self.mean += a * diff
            self.var = (1.0 - a) * (self.var + a * diff * diff)
        self.count += 1
        return False

    # -- checkpoint support --------------------------------------------
    def export_state(self) -> dict:
        return {"count": self.count, "mean": self.mean, "var": self.var,
                "num_spikes": self.num_spikes}

    def restore_state(self, state: dict) -> None:
        self.count = int(state["count"])
        self.mean = float(state["mean"])
        self.var = float(state["var"])
        self.num_spikes = int(state.get("num_spikes", 0))


class PPODivergenceDetector:
    """Stateless divergence limits on one PPO update's statistics.

    ``check`` receives the updater's :class:`~repro.rl.ppo.PPOStats` and
    returns the anomaly kind (or ``None``): non-finite losses, an
    approximate KL above :data:`KL_LIMIT` (the policy jumped
    off-policy), or a probability ratio beyond :data:`RATIO_LIMIT` (the
    clipped surrogate's trust region collapsed).
    """

    def check(self, stats) -> str | None:
        for what in ("policy_loss", "value_loss", "approx_kl", "max_ratio"):
            if not np.isfinite(getattr(stats, what)):
                return "nonfinite"
        if stats.approx_kl > KL_LIMIT:
            return "kl_divergence"
        if stats.max_ratio > RATIO_LIMIT:
            return "ratio_blowup"
        return None
