"""Numerical-health guards: finite checks, spike and divergence detectors.

Everything in this module *observes* — nothing here mutates the values it
inspects, draws from a random stream, or otherwise perturbs the
computation.  That is a hard requirement: a search run with guards
enabled but no anomaly firing must stay bit-identical to a run with
guards off (asserted by the fingerprint tests), so detection has to be a
pure read of the numbers flowing past.

Three families of guard live here:

* :func:`all_finite` / :func:`require_finite` — blockwise non-finite
  scans over activations, gradients, parameters, and exchange deltas.
  Blockwise so a poisoned entry near the front of a large array is found
  without scanning the rest.
* :class:`LossSpikeDetector` — an EWMA mean/variance tracker over a
  scalar loss stream; a z-score above the configured threshold flags a
  spike.  Spiking observations are excluded from the running statistics
  so one blow-up cannot drag the baseline after it.
* :class:`PPODivergenceDetector` — stateless limits on the PPO update's
  approximate KL and probability-ratio extremes (an off-policy update
  whose ratios explode is diverging even while every number is finite).

:class:`GuardConfig` bundles the thresholds plus the guard ``mode``:
``"off"`` (inert), ``"check"`` (detect and raise
:class:`NumericalAnomaly` — fail fast, surface the anomaly), or
``"recover"`` (detect and roll back; see :mod:`repro.health.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GUARD_MODES", "GuardConfig", "NumericalAnomaly", "all_finite",
           "require_finite", "LossSpikeDetector", "PPODivergenceDetector"]

GUARD_MODES = ("off", "check", "recover")

#: block length of the incremental finite scan (64k doubles = 512 KiB)
_BLOCK = 1 << 16


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
    """Thresholds and mode of the numerical-health layer.

    All detectors are calibrated to be silent on healthy training: the
    loss z-score threshold is far outside ordinary batch-to-batch noise,
    and the KL/ratio limits are an order of magnitude beyond what a
    clipped PPO update produces.  The defaults therefore trade detection
    latency for a near-zero false-positive rate — a guard that fires on
    healthy runs would *break* determinism instead of protecting it.
    """

    mode: str = "off"                 # "off" | "check" | "recover"
    #: loss-spike detector: z-score threshold, EWMA smoothing, and how
    #: many observations seed the statistics before detection arms
    loss_spike_zscore: float = 8.0
    loss_ewma_alpha: float = 0.2
    loss_warmup: int = 5
    #: PPO divergence: approximate-KL limit and probability-ratio bound
    kl_limit: float = 1.0
    ratio_limit: float = 50.0
    #: parameter-server delta hygiene: reject deltas whose L2 norm
    #: exceeds ``delta_norm_factor`` x the EWMA of accepted norms (after
    #: ``delta_warmup`` accepted pushes), and optionally evict recent
    #: async updates older than ``max_delta_age`` virtual seconds
    delta_norm_factor: float = 50.0
    delta_warmup: int = 8
    max_delta_age: float | None = None
    #: recovery: learning-rate multiplier applied on each rollback
    #: (with a floor), and how many rollbacks one agent lifetime absorbs
    #: before escalating to a restart
    lr_backoff: float = 0.5
    min_lr_fraction: float = 1.0 / 64.0
    escalate_after: int = 2

    def __post_init__(self) -> None:
        if self.mode not in GUARD_MODES:
            raise ValueError(
                f"guard mode must be one of {GUARD_MODES}, got {self.mode!r}")
        if self.loss_spike_zscore <= 0 or self.loss_warmup < 1:
            raise ValueError("loss_spike_zscore must be > 0, warmup >= 1")
        if not 0.0 < self.loss_ewma_alpha <= 1.0:
            raise ValueError("loss_ewma_alpha must be in (0, 1]")
        if self.kl_limit <= 0 or self.ratio_limit <= 1.0:
            raise ValueError("kl_limit must be > 0 and ratio_limit > 1")
        if self.delta_norm_factor <= 1.0 or self.delta_warmup < 1:
            raise ValueError(
                "delta_norm_factor must be > 1 and delta_warmup >= 1")
        if self.max_delta_age is not None and self.max_delta_age <= 0:
            raise ValueError("max_delta_age must be positive")
        if not 0.0 < self.lr_backoff < 1.0:
            raise ValueError("lr_backoff must be in (0, 1)")
        if not 0.0 < self.min_lr_fraction <= 1.0:
            raise ValueError("min_lr_fraction must be in (0, 1]")
        if self.escalate_after < 1:
            raise ValueError("escalate_after must be >= 1")

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
    losses.  After ``warmup`` observations, a loss more than ``zscore``
    estimated standard deviations above the mean — or a non-finite loss
    at any point — is flagged as a spike.  Spikes are *not* folded into
    the running statistics, so a blow-up cannot normalize itself.
    """

    def __init__(self, zscore: float = 8.0, alpha: float = 0.2,
                 warmup: int = 5) -> None:
        self.zscore = zscore
        self.alpha = alpha
        self.warmup = warmup
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
        if self.count >= self.warmup:
            std = float(np.sqrt(self.var)) + 1e-12
            if (loss - self.mean) / std > self.zscore:
                self.num_spikes += 1
                return True
        if self.count == 0:
            self.mean = loss
            self.var = 0.0
        else:
            a = self.alpha
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
    approximate KL above ``kl_limit`` (the policy jumped off-policy), or
    a probability ratio beyond ``ratio_limit`` (the clipped surrogate's
    trust region collapsed).
    """

    def __init__(self, kl_limit: float = 1.0,
                 ratio_limit: float = 50.0) -> None:
        self.kl_limit = kl_limit
        self.ratio_limit = ratio_limit

    def check(self, stats) -> str | None:
        for what in ("policy_loss", "value_loss", "approx_kl", "max_ratio"):
            if not np.isfinite(getattr(stats, what)):
                return "nonfinite"
        if stats.approx_kl > self.kl_limit:
            return "kl_divergence"
        if stats.max_ratio > self.ratio_limit:
            return "ratio_blowup"
        return None
