"""Proximal policy optimization (§3.2, Eq. 2).

Each search iteration, an agent samples M architectures, receives their
rewards, and performs a PPO update: the clipped surrogate

    J(θ) = E[min(r(θ)·Â, clip(r(θ), 1−ε, 1+ε)·Â)]

with r(θ) the new/old action-probability ratio, plus a value-function
loss and an entropy bonus, optimized for ``epochs`` passes with Adam —
the paper uses epochs=4, clip=0.2, lr=0.001.

An architecture evaluation yields a single terminal reward; every token
step of that episode receives the episode return, and the advantage at
step *t* is ``R − V(s_t)`` with V from the critic at sampling time
(actor-critic baseline, §3.2).  Advantages are normalized across the
batch, as in OpenAI Baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.optimizers import FlatAdam, clip_global_norm
from .policy import LSTMPolicy, Rollout

__all__ = ["PPOConfig", "PPOStats", "PPOUpdater"]

#: surrogate clip range ε (the paper's 0.2)
_CLIP = 0.2
#: weight c_v of the value-function loss
_VALUE_COEF = 0.5
#: global gradient-norm clip applied before each Adam step
_MAX_GRAD_NORM = 0.5


@dataclass(frozen=True)
class PPOConfig:
    """Optimization settings of one :class:`PPOUpdater`: Adam passes
    per update, Adam learning rate, and the entropy-bonus weight c_e."""

    epochs: int = 4
    lr: float = 1e-3
    entropy_coef: float = 0.01

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")


@dataclass
class PPOStats:
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    grad_norm: float
    #: divergence statistics read by the health layer's PPO detector
    #: (repro.health): mean (r - 1) - log r estimator of KL(old||new),
    #: and the largest probability ratio of the update
    approx_kl: float = 0.0
    max_ratio: float = 1.0


class PPOUpdater:
    """Applies PPO updates to one agent's policy."""

    def __init__(self, policy: LSTMPolicy, config: PPOConfig | None = None
                 ) -> None:
        self.policy = policy
        self.config = config or PPOConfig()
        # fused Adam over the policy's flat parameter pack; elementwise
        # identical to per-parameter Adam
        self.optimizer = FlatAdam(policy.flat, lr=self.config.lr)

    def prepare_targets(self, rollout: Rollout, rewards: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """(advantages, returns) for one rollout and its episode rewards.

        ``rewards`` has one entry per rollout row (terminal reward of the
        generated architecture).  Advantages come back normalized across
        the batch; returns are the raw value targets.
        """
        rewards = np.asarray(rewards, dtype=np.float64)
        if rewards.shape != (rollout.actions.shape[0],):
            raise ValueError(
                f"expected {rollout.actions.shape[0]} rewards, got "
                f"{rewards.shape}")
        advantages = self._gae(rewards, rollout.values)
        returns = advantages + rollout.values  # value-function targets
        std = advantages.std()
        advantages = (advantages - advantages.mean()) / (std + 1e-8)
        return advantages, returns

    def surrogate_loss(self, rollout: Rollout, advantages: np.ndarray,
                       returns: np.ndarray, with_grads: bool = True
                       ) -> tuple[float, PPOStats]:
        """Evaluate L = policy_loss + c_v·value_loss − c_e·entropy at the
        current parameters; with ``with_grads`` also accumulate ∂L/∂θ
        into the policy (after zeroing).

        This is the pure loss/gradient evaluation :meth:`update` iterates
        — no gradient clipping, no optimizer step — which is exactly what
        finite-difference verification needs (``grad_norm`` in the
        returned stats is 0; the caller clips).
        """
        cfg = self.config
        old_logp = rollout.logprobs
        n = old_logp.size
        logp, values, entropies, caches = self.policy.forward_train(
            rollout.actions)
        ratio = np.exp(logp - old_logp)
        clipped = np.clip(ratio, 1.0 - _CLIP, 1.0 + _CLIP)
        surr1 = ratio * advantages
        surr2 = clipped * advantages
        use1 = surr1 <= surr2  # min picks the smaller surrogate
        policy_loss = -np.minimum(surr1, surr2).mean()
        value_err = values - returns
        value_loss = 0.5 * np.mean(value_err ** 2)
        entropy = entropies.mean()
        loss = float(policy_loss + _VALUE_COEF * value_loss
                     - cfg.entropy_coef * entropy)

        if with_grads:
            # gradients of L = policy_loss + c_v*value_loss - c_e*entropy
            d_logp = np.where(use1, -ratio * advantages / n, 0.0)
            d_value = _VALUE_COEF * value_err / n
            d_entropy = np.full_like(logp, -cfg.entropy_coef / n)
            self.policy.zero_grad()
            self.policy.backward_train(caches, d_logp, d_value, d_entropy)

        log_ratio = logp - old_logp
        stats = PPOStats(float(policy_loss), float(value_loss),
                         float(entropy), float(np.mean(ratio != clipped)),
                         0.0,
                         approx_kl=float(np.mean(ratio - 1.0 - log_ratio)),
                         max_ratio=float(np.max(ratio)))
        return loss, stats

    def update(self, rollout: Rollout, rewards: np.ndarray) -> PPOStats:
        """One PPO update from a rollout and its episode rewards."""
        cfg = self.config
        advantages, returns = self.prepare_targets(rollout, rewards)
        stats = PPOStats(0.0, 0.0, 0.0, 0.0, 0.0)
        for _ in range(cfg.epochs):
            _, stats = self.surrogate_loss(rollout, advantages, returns)
            grad_norm = clip_global_norm(
                [p.grad for p in self.policy.parameters()],
                _MAX_GRAD_NORM)
            self.optimizer.step()
            stats.grad_norm = float(grad_norm)
        return stats

    def _gae(self, rewards: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Advantages over token sequences whose only nonzero reward is
        terminal: GAE with γ=λ=1, which is ``R − V_t`` for every step.
        The reverse accumulation stays rather than ``R − V``: recorded
        fingerprints depend on its rounding."""
        batch, horizon = values.shape
        advantages = np.zeros_like(values)
        gae = np.zeros(batch)
        for t in reversed(range(horizon)):
            r_t = rewards if t == horizon - 1 else 0.0
            v_next = values[:, t + 1] if t + 1 < horizon else 0.0
            delta = r_t + v_next - values[:, t]
            gae = delta + gae
            advantages[:, t] = gae
        return advantages

    def update_delta(self, rollout: Rollout, rewards: np.ndarray
                     ) -> tuple[np.ndarray, PPOStats]:
        """PPO update returning the parameter delta it produced.

        This is the quantity agents exchange through the parameter
        server: the paper's agents send their PPO gradient estimates to
        the PS and apply the returned average; with multi-epoch PPO the
        natural gradient-estimate analogue is the local update direction
        Δθ = θ_after − θ_before.
        """
        before = self.policy.get_flat()
        stats = self.update(rollout, rewards)
        after = self.policy.get_flat()
        return after - before, stats
