"""Gradient-descent optimizers.

Adam uses the same defaults as the paper's experiments (learning rate
0.001), for both reward estimation and post-training.  Two forms are
provided:

* :class:`FlatAdam` — the production optimizer: fused over a
  :class:`~repro.nn.engine.FlatParameterVector`, so the whole model
  updates with a handful of whole-vector vectorized ops instead of a
  Python loop over parameters.
* :class:`Adam` — the per-parameter reference over a list of
  :class:`~repro.nn.tensor.Parameter` objects, moment state keyed by
  parameter identity so shared (mirrored) parameters are updated once
  per step even though they appear in multiple layers.  Elementwise the
  math is identical to :class:`FlatAdam` (same ops in the same order
  per element), so results are bit-identical at equal dtype; the
  float64 unfused benchmark kernel runs it.
"""

from __future__ import annotations

import numpy as np

from .engine import FlatParameterVector
from .tensor import Parameter

__all__ = ["Optimizer", "Adam", "FlatOptimizer", "FlatAdam",
           "clip_global_norm"]


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.

    Returns the pre-clip norm.  Used by the PPO update (OpenAI Baselines
    clips policy gradients at 0.5 by default).
    """
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Optimizer:
    def __init__(self, params: list[Parameter]) -> None:
        self.params = list(params)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(self, params: list[Parameter], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {id(p): np.zeros_like(p.value) for p in self.params}
        self._v = {id(p): np.zeros_like(p.value) for p in self.params}

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p in self.params:
            m = self._m[id(p)]
            v = self._v[id(p)]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            p.value -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


class FlatOptimizer:
    """Base for fused optimizers over one contiguous parameter vector.

    Accepts either a prepared :class:`FlatParameterVector` (e.g. from
    :meth:`GraphModel.flatten_parameters`) or a plain parameter list,
    which is packed (deduplicated by identity) on the spot.
    """

    def __init__(self, params) -> None:
        if isinstance(params, FlatParameterVector):
            self.flat = params
        else:
            self.flat = FlatParameterVector(list(params))

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.flat.zero_grad()


class FlatAdam(FlatOptimizer):
    """Fused Adam: whole-vector moments, bit-identical to :class:`Adam`."""

    def __init__(self, params, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = np.zeros_like(self.flat.values)
        self._v = np.zeros_like(self.flat.values)

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        g = self.flat.grads
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        self.flat.values -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    # -- checkpoint support -------------------------------------------
    def export_state(self) -> dict:
        """Copy of the moment state (search checkpoints must restore it:
        resuming with zeroed moments changes every subsequent update)."""
        return {"t": self.t, "m": self._m.copy(), "v": self._v.copy()}

    def restore_state(self, state: dict) -> None:
        self.t = int(state["t"])
        self._m[:] = np.asarray(state["m"], dtype=self._m.dtype)
        self._v[:] = np.asarray(state["v"], dtype=self._v.dtype)

