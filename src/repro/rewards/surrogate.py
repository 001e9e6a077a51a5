"""Surrogate reward model for at-scale search simulation.

A 256–1,024-node, 360-minute search evaluates tens of thousands of
architectures; really training each one is exactly the cost the paper
needed a supercomputer for.  The surrogate replaces the training run with
a seeded deterministic quality function over the architecture plus
agent-keyed noise, preserving the properties the search experiments
measure:

* **learnable structure** — the quality is a sum of per-decision
  affinities plus adjacent-decision synergies (a Markovian signal, which
  is precisely the structure RL-based NAS exploits, §1) and a smooth
  capacity term peaking at a space-specific parameter count;
* **agent-keyed stochasticity** — the same architecture gets a different
  reward from different agents (random weight initialization with
  agent-specific seeds, §5), with a benchmark-tunable noise scale (NT3's
  1-epoch/batch-20 estimates are very noisy: the paper saw 1.0 vs 0.4
  for the same network);
* **fidelity coupling** — training-data fraction scales both the reward
  (less estimation bias) and the modelled duration; runs exceeding the
  timeout are truncated and heavily penalized, reproducing the §5.4
  regime where 40% data makes most early architectures time out.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..hpc.costmodel import TrainingCostModel
from ..nas.arch import Architecture
from ..nas.ops import (ActivationOp, ConnectOp, Conv1DOp, DenseOp,
                       DropoutOp, MaxPooling1DOp, Operation)
from ..nas.space import Structure
from .base import EvalResult, RewardModel

__all__ = ["SurrogateReward", "op_prior"]

_ACT_PRIOR = {"relu": 0.5, "tanh": 0.25, "linear": 0.15, "sigmoid": -0.4,
              "softmax": -0.4}
#: the noiseless reward is ``reward_base + _REWARD_AMP·tanh(quality)``
#: plus ``_FIDELITY_WEIGHT·(train_fraction − 0.5)``
_REWARD_AMP = 0.5
_FIDELITY_WEIGHT = 0.15
#: the capacity prior: a gaussian bump of this width in log10(params)
#: around ``log_params_opt``, weighted into the quality score
_CAPACITY_SIGMA = 0.8
_CAPACITY_WEIGHT = 1.0


def op_prior(op: Operation) -> float:
    """Trainability prior of an operation under 1-epoch low-fidelity
    training — what real reward estimation systematically favors.

    ReLU optimizes better than saturating activations at short budgets;
    light dropout helps generalization while heavy dropout starves a
    single epoch; convolution + pooling are the right primitives for the
    long 1-D expression inputs; skip connections mildly help.  These
    priors correlate the surrogate's landscape with what actually
    post-trains well, without removing the per-decision structure the
    RL agent must learn.
    """
    if isinstance(op, DenseOp):
        return _ACT_PRIOR.get(op.activation, 0.0)
    if isinstance(op, ActivationOp):
        return _ACT_PRIOR.get(op.activation, 0.0)
    if isinstance(op, DropoutOp):
        if op.rate <= 0.1:
            return 0.2
        if op.rate <= 0.25:
            return 0.0
        return -0.3
    if isinstance(op, Conv1DOp):
        return 0.35
    if isinstance(op, MaxPooling1DOp):
        return 0.25
    if isinstance(op, ConnectOp):
        return 0.15 if op.refs else 0.0
    return 0.0  # Identity, Add, anything unknown


class SurrogateReward(RewardModel):
    """Deterministic seeded architecture-quality surrogate.

    Parameters
    ----------
    space, input_shapes, head_ops:
        Define the compile step (parameter counts are exact, via the
        plan compiler).
    cost_model:
        Maps parameter count → single-node training seconds.
    epochs, train_fraction, timeout:
        Reward-estimation fidelity knobs (§3.3/§5.4).
    reward_base:
        The noiseless reward is
        ``reward_base + _REWARD_AMP·tanh(quality)``; the default gives
        the Combo-like range of Fig. 4.
    noise:
        Std of the agent-keyed gaussian reward noise.
    log_params_opt:
        The capacity prior: quality is boosted near ``10**log_params_opt``
        trainable parameters — the mechanism by which agents "learn to
        generate architectures that have a shorter training time with
        higher rewards" (§5.1).
    seed:
        Seeds the hidden affinity tables; two surrogates with the same
        seed define the same optimization landscape.
    """

    def __init__(self, space: Structure,
                 input_shapes: dict[str, tuple[int, ...]],
                 head_ops: list[Operation],
                 cost_model: TrainingCostModel,
                 epochs: int = 1, train_fraction: float = 1.0,
                 timeout: float | None = 600.0,
                 reward_base: float = 0.1, noise: float = 0.05,
                 log_params_opt: float = 6.2, seed: int = 0) -> None:
        if not 0.0 < train_fraction <= 1.0:
            raise ValueError("train_fraction must be in (0, 1]")
        self.space = space
        self.input_shapes = dict(input_shapes)
        self.head_ops = list(head_ops)
        self.cost_model = cost_model
        self.epochs = epochs
        self.train_fraction = train_fraction
        self.timeout = timeout
        self.reward_base = reward_base
        self.noise = noise
        self.log_params_opt = log_params_opt
        self.seed = seed

        rng = np.random.default_rng(seed)
        dims = space.action_dims
        # per-decision affinity = trainability prior + seeded noise: the
        # prior correlates the landscape with real short-budget training,
        # the noise makes each landscape instance distinct
        self._affinity = [
            np.array([op_prior(op) for op in node.ops])
            + rng.normal(0.0, 0.5, size=node.num_ops)
            for node in space.variable_nodes]
        self._synergy = [rng.normal(0.0, 0.35, size=(dims[i], dims[i + 1]))
                         for i in range(len(dims) - 1)]
        self._param_cache: dict[tuple[int, ...], int] = {}

    # -- internals -----------------------------------------------------
    def _plan(self, arch: Architecture):
        return self._compile_plan(self.space, arch.choices,
                                  self.input_shapes, self.head_ops)

    def prefetch_plan(self, arch: Architecture) -> None:
        if self.plan_cache is None:
            return
        try:
            self._plan(arch)
        except (ValueError, KeyError):
            pass  # invalid architecture: surfaces at evaluation time

    def params_of(self, arch: Architecture) -> int:
        """Exact parameter count, memoized per choice tuple."""
        key = arch.choices
        if key not in self._param_cache:
            if len(self._param_cache) > 200_000:  # bound memory at scale
                self._param_cache.clear()
            self._param_cache[key] = self._plan(arch).total_params
        return self._param_cache[key]

    def quality(self, arch: Architecture) -> float:
        """Noise-free architecture quality (hidden objective)."""
        c = arch.choices
        q = sum(self._affinity[i][c[i]] for i in range(len(c)))
        q += sum(self._synergy[i][c[i], c[i + 1]] for i in range(len(c) - 1))
        q /= max(1, len(c))

        log_p = np.log10(max(self.params_of(arch), 1))
        cap = np.exp(-0.5 * ((log_p - self.log_params_opt)
                             / _CAPACITY_SIGMA) ** 2)
        return float(q + _CAPACITY_WEIGHT * (cap - 0.5))

    def noiseless_reward(self, arch: Architecture,
                         train_fraction: float | None = None) -> float:
        f = self.train_fraction if train_fraction is None else train_fraction
        r = self.reward_base + _REWARD_AMP * np.tanh(self.quality(arch))
        return float(r + _FIDELITY_WEIGHT * (f - 0.5))

    # -- RewardModel API -------------------------------------------------
    def evaluate(self, arch: Architecture, agent_seed: int = 0,
                 train_fraction: float | None = None) -> EvalResult:
        fraction = self.train_fraction if train_fraction is None \
            else train_fraction
        try:
            params = self.params_of(arch)
        except (ValueError, KeyError):
            return EvalResult(self.FAILURE_REWARD, self.cost_model.startup, 0)

        key = zlib.crc32(f"{self.seed}|{agent_seed}|{arch}".encode())
        noise = np.random.default_rng(key).normal(0.0, self.noise)
        reward = self.noiseless_reward(arch, train_fraction=fraction) + noise

        full_duration = self.cost_model.duration(params, self.epochs,
                                                 fraction)
        timed_out = self.timeout is not None and full_duration > self.timeout
        if timed_out:
            # partial training: reward collapses toward the failure floor
            progress = self.timeout / full_duration
            reward = self.FAILURE_REWARD + (reward - self.FAILURE_REWARD) \
                * progress ** 2
            duration = self.timeout
        else:
            duration = full_duration
        return EvalResult(float(np.clip(reward, -1.0, 1.0)), duration,
                          params, timed_out)
