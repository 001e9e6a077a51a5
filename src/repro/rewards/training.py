"""Reward estimation by actually training the generated network.

Implements the paper's protocol: build the architecture with
agent-specific random weight initialization, train for a small number of
epochs on a fraction of the training data with a timeout, and return the
validation metric (R² or accuracy) as the reward.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

from ..nas.arch import Architecture
from ..nas.builder import compile_architecture
from ..nn.training import Trainer
from ..problems.base import Problem
from .base import EvalResult, RewardModel

__all__ = ["TrainingReward", "arch_seed"]


def arch_seed(base_seed: int, agent_seed: int, arch: Architecture) -> int:
    """Deterministic seed for (run, agent, architecture).

    Uses crc32 of the stable string form rather than Python's ``hash``
    (which is salted per interpreter) so runs reproduce across processes.
    """
    return zlib.crc32(f"{base_seed}|{agent_seed}|{arch}".encode()) & 0x7FFFFFFF


class TrainingReward(RewardModel):
    """Reward = validation metric after (low-fidelity) training.

    Parameters mirror §5's reward-estimation setup: ``epochs=1``, a
    timeout, and a training-data fraction (10% for Combo at paper scale,
    full data for Uno/NT3).
    """

    def __init__(self, problem: Problem, epochs: int = 1,
                 timeout: float | None = None, train_fraction: float = 1.0,
                 base_seed: int = 0,
                 clock=time.monotonic) -> None:
        self.problem = problem
        self.epochs = epochs
        self.timeout = timeout
        self.train_fraction = train_fraction
        self.base_seed = base_seed
        self.clock = clock

    def _plan(self, arch: Architecture):
        problem = self.problem
        if self.plan_cache is not None:
            return self.plan_cache.get_or_compile(
                problem.space, arch.choices, problem.input_shapes,
                problem.head_ops)
        return compile_architecture(problem.space, arch.choices,
                                    problem.input_shapes, problem.head_ops)

    def prefetch_plan(self, arch: Architecture) -> None:
        if self.plan_cache is None:
            return
        try:
            self._plan(arch)
        except (ValueError, KeyError, FloatingPointError, OverflowError):
            pass  # invalid architecture: surfaces at evaluation time

    def evaluate(self, arch: Architecture, agent_seed: int = 0,
                 train_fraction: float | None = None) -> EvalResult:
        problem = self.problem
        fraction = self.train_fraction if train_fraction is None \
            else train_fraction
        seed = arch_seed(self.base_seed, agent_seed, arch)
        start = self.clock()
        try:
            plan = self._plan(arch)
            model = plan.materialize(np.random.default_rng(seed))
        except (ValueError, KeyError, FloatingPointError, OverflowError):
            # invalid architecture (e.g. pooling exhausted the sequence)
            # or a numerically degenerate build
            return EvalResult(self.FAILURE_REWARD, self.clock() - start, 0)

        trainer = Trainer(loss=problem.loss, metric=problem.metric,
                          batch_size=problem.batch_size, epochs=self.epochs,
                          timeout=self.timeout,
                          train_fraction=fraction,
                          seed=seed, clock=self.clock)
        ds = problem.dataset
        try:
            hist = trainer.fit(model, ds.x_train, ds.y_train,
                               ds.x_val, ds.y_val)
        except (FloatingPointError, OverflowError):
            # numerical blowup mid-training (exploding activations or
            # gradients): a bad architecture, not a crashed agent
            return EvalResult(self.FAILURE_REWARD, self.clock() - start,
                              plan.total_params)
        reward = hist.val_metric
        if not np.isfinite(reward):
            # training diverged to NaN/Inf: the architecture fails
            reward = self.FAILURE_REWARD
        # R² is unbounded below; the paper's reward scale floors at -1
        reward = max(float(reward), self.FAILURE_REWARD)
        return EvalResult(reward, self.clock() - start,
                          plan.total_params, hist.timed_out)
