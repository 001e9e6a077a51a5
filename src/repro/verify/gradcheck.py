"""Universal finite-difference gradient checker.

Validates every analytic backward pass in the substrate against central
finite differences of a scalar probe objective

    L = sum(proj * forward(x))

with a fixed random projection ``proj``.  The checker introspects the
layer protocol, so one implementation covers single-input layers
(Dense, Conv1D, MaxPooling1D, Dropout-in-eval, Activation, Identity,
Flatten), multi-input merge layers (Concatenate, Add), the losses
(gradient of ``value`` vs. ``grad``), the LSTM policy with action
masking (through ``forward_train``/``backward_train``), and the full
PPO surrogate objective.

All checks run in float64 (central differences with eps ~1e-6 do not
resolve in single precision).  Exposed as the ``gradcheck`` pytest
fixture and through ``python -m repro.verify grad``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..nn.config import dtype_scope
from ..nn.conv import Conv1D, Flatten, MaxPooling1D
from ..nn.layers import Activation, Dense, Dropout, Identity
from ..nn.losses import CategoricalCrossentropy, Loss, MeanSquaredError
from ..nn.merge import Add, Concatenate, MergeLayer

__all__ = ["GradCheckResult", "check_layer", "check_loss", "check_policy",
           "check_ppo_objective", "default_checks", "run_all"]

#: documented default tolerances for float64 central differences
EPS = 1e-6
RTOL = 1e-5
ATOL = 1e-7


@dataclass
class GradCheckResult:
    """Outcome of one gradient check."""

    name: str
    n_checked: int
    max_err: float        # worst |analytic - numeric| over atol + rtol*|numeric|
    worst: str            # entry where the worst error occurred
    ok: bool

    def assert_ok(self) -> "GradCheckResult":
        assert self.ok, (
            f"gradient check {self.name!r} failed: worst relative error "
            f"{self.max_err:.3g} at {self.worst} "
            f"({self.n_checked} entries checked)")
        return self


class _ErrorTracker:
    def __init__(self, name: str, rtol: float, atol: float) -> None:
        self.name = name
        self.rtol = rtol
        self.atol = atol
        self.n = 0
        self.max_err = 0.0
        self.worst = ""

    def record(self, label: str, numeric: float, analytic: float) -> None:
        self.n += 1
        err = abs(analytic - numeric) / (self.atol + self.rtol * abs(numeric))
        if err > self.max_err:
            self.max_err = err
            self.worst = f"{label} (numeric {numeric:.6g}, analytic {analytic:.6g})"

    def result(self) -> GradCheckResult:
        return GradCheckResult(self.name, self.n, self.max_err,
                               self.worst, self.max_err <= 1.0)


def _indices(rng: np.random.Generator, shape: tuple[int, ...],
             max_entries: int | None):
    size = int(np.prod(shape)) if shape else 1
    if max_entries is None or size <= max_entries:
        flat = np.arange(size)
    else:
        flat = rng.choice(size, size=max_entries, replace=False)
    return [np.unravel_index(int(i), shape) for i in flat]


def _central_diff(objective: Callable[[], float], arr: np.ndarray,
                  idx, eps: float) -> float:
    old = arr[idx]
    arr[idx] = old + eps
    fp = objective()
    arr[idx] = old - eps
    fm = objective()
    arr[idx] = old
    return (fp - fm) / (2.0 * eps)


def check_layer(layer, input_shapes, *, batch: int = 3,
                training: bool = False, seed: int = 0, eps: float = EPS,
                rtol: float = RTOL, atol: float = ATOL,
                max_entries: int | None = 64,
                name: str | None = None) -> GradCheckResult:
    """Finite-difference check of one layer's backward pass.

    ``input_shapes`` is one per-sample shape for single-input layers or a
    list of shapes for :class:`~repro.nn.merge.MergeLayer` subclasses.
    Checks the gradients w.r.t. every parameter and every input against
    central differences of a random-projection objective.
    """
    multi = isinstance(layer, MergeLayer)
    if not multi and input_shapes and isinstance(input_shapes[0], (tuple, list)):
        input_shapes = input_shapes[0]
    shapes = ([tuple(s) for s in input_shapes] if multi
              else [tuple(input_shapes)])
    rng = np.random.default_rng(seed)
    with dtype_scope(np.float64):
        if multi:
            layer.build_multi(shapes, rng)
        else:
            layer.build(shapes[0], rng)
    xs = [rng.standard_normal((batch,) + s) for s in shapes]
    out_shape = (batch,) + tuple(layer.output_shape)
    proj = rng.standard_normal(out_shape)

    def forward():
        if multi:
            return layer.forward_multi(xs, training)
        return layer.forward(xs[0], training)

    def objective() -> float:
        return float(np.sum(proj * forward(), dtype=np.float64))

    out = forward()
    if out.shape != out_shape:
        raise AssertionError(
            f"{type(layer).__name__}: declared output shape "
            f"{layer.output_shape} but forward produced {out.shape[1:]}")
    for p in layer.parameters():
        p.zero_grad()
    if multi:
        in_grads = layer.backward_multi(proj)
    else:
        in_grads = [layer.backward(proj)]

    label = name or f"{type(layer).__name__}{shapes}"
    tracker = _ErrorTracker(label, rtol, atol)
    for p in layer.parameters():
        for idx in _indices(rng, p.value.shape, max_entries):
            num = _central_diff(objective, p.value, idx, eps)
            tracker.record(f"{p.name}[{idx}]", num, float(p.grad[idx]))
    for k, (x, g) in enumerate(zip(xs, in_grads)):
        for idx in _indices(rng, x.shape, max_entries):
            num = _central_diff(objective, x, idx, eps)
            tracker.record(f"input{k}[{idx}]", num, float(g[idx]))
    return tracker.result()


def check_loss(loss: Loss, pred: np.ndarray, target: np.ndarray, *,
               seed: int = 0, eps: float = EPS, rtol: float = RTOL,
               atol: float = ATOL, max_entries: int | None = 64,
               name: str | None = None) -> GradCheckResult:
    """Check ``loss.grad`` against central differences of ``loss.value``."""
    pred = np.asarray(pred, dtype=np.float64).copy()
    target = np.asarray(target, dtype=np.float64)
    rng = np.random.default_rng(seed)
    analytic = loss.grad(pred, target)
    tracker = _ErrorTracker(name or type(loss).__name__, rtol, atol)
    for idx in _indices(rng, pred.shape, max_entries):
        num = _central_diff(lambda: loss.value(pred, target), pred, idx, eps)
        tracker.record(f"pred[{idx}]", num, float(analytic[idx]))
    return tracker.result()


def check_policy(action_dims, *, batch: int = 2, hidden: int = 8,
                 embed_dim: int = 5, seed: int = 0, eps: float = EPS,
                 rtol: float = 1e-4, atol: float = ATOL,
                 max_entries: int | None = 200,
                 name: str | None = None) -> GradCheckResult:
    """Check the LSTM policy's BPTT gradients (with action masking).

    Probes ``L = Σ w_l·logp + Σ w_v·value + Σ w_e·entropy`` through
    ``forward_train``/``backward_train``; parameters are perturbed via
    the policy's flat pack, whose per-parameter views keep the network
    live.  ``action_dims=[k]`` exercises the sequence-length-1 path.
    """
    from ..rl.policy import LSTMPolicy

    with dtype_scope(np.float64):
        policy = LSTMPolicy(list(action_dims), hidden=hidden,
                            embed_dim=embed_dim, seed=seed)
    rng = np.random.default_rng(seed + 1)
    horizon = len(action_dims)
    actions = np.stack([rng.integers(0, d, size=batch)
                        for d in action_dims], axis=1)
    w_l = rng.standard_normal((batch, horizon))
    w_v = rng.standard_normal((batch, horizon))
    w_e = rng.standard_normal((batch, horizon))

    def objective() -> float:
        logp, values, entropies = policy.forward_train(actions)
        return float((w_l * logp).sum() + (w_v * values).sum()
                     + (w_e * entropies).sum())

    policy.zero_grad()
    policy.forward_train(actions)
    policy.backward_train(w_l, w_v, w_e)

    flat = policy.flat
    tracker = _ErrorTracker(
        name or f"LSTMPolicy(dims={list(action_dims)})", rtol, atol)
    for idx in _indices(rng, (flat.size,), max_entries):
        num = _central_diff(objective, flat.values, idx, eps)
        tracker.record(f"flat[{idx[0]}]", num, float(flat.grads[idx]))
    return tracker.result()


def check_ppo_objective(action_dims=(3, 4, 2), *, batch: int = 4,
                        seed: int = 0, eps: float = EPS, rtol: float = 1e-4,
                        atol: float = ATOL,
                        max_entries: int | None = 200) -> GradCheckResult:
    """Check the PPO clipped-surrogate gradients end to end.

    Uses :meth:`~repro.rl.ppo.PPOUpdater.surrogate_loss` — the pure
    loss/gradient evaluation ``update`` iterates — so no optimizer step
    perturbs the comparison.
    """
    from ..rl.policy import LSTMPolicy
    from ..rl.ppo import PPOConfig, PPOUpdater

    with dtype_scope(np.float64):
        policy = LSTMPolicy(list(action_dims), hidden=8, embed_dim=5,
                            seed=seed)
    updater = PPOUpdater(policy, PPOConfig(epochs=1))
    rng = np.random.default_rng(seed + 2)
    rollout = policy.sample(batch, rng)
    rewards = rng.random(batch)
    advantages, returns = updater.prepare_targets(rollout, rewards)

    def objective() -> float:
        loss, _ = updater.surrogate_loss(rollout, advantages, returns,
                                         with_grads=False)
        return loss

    policy.zero_grad()
    updater.surrogate_loss(rollout, advantages, returns, with_grads=True)
    flat = policy.flat
    tracker = _ErrorTracker("PPO surrogate", rtol, atol)
    for idx in _indices(rng, (flat.size,), max_entries):
        num = _central_diff(objective, flat.values, idx, eps)
        tracker.record(f"flat[{idx[0]}]", num, float(flat.grads[idx]))
    return tracker.result()


# ----------------------------------------------------------------------
# the default suite: every public layer and loss, plus edge shapes
# ----------------------------------------------------------------------
def default_checks() -> list[tuple[str, Callable[[], GradCheckResult]]]:
    """(name, thunk) for every check ``run_all``/the CLI executes.

    Includes the untested edge shapes: Conv1D feeding a pool whose size
    does not divide the input length, LSTM at sequence length 1, and
    batch size 1 for every layer family.
    """
    checks: list[tuple[str, Callable[[], GradCheckResult]]] = []

    def add(name, thunk):
        checks.append((name, thunk))

    for act in ("relu", "tanh", "sigmoid", "linear", "softmax"):
        add(f"dense-{act}",
            lambda act=act: check_layer(Dense(6, act), (5,)))
    add("dense-batch1", lambda: check_layer(Dense(4, "relu"), (5,), batch=1))
    add("conv1d", lambda: check_layer(Conv1D(3, 4, activation="tanh"),
                                      (17, 2)))
    add("conv1d-strided", lambda: check_layer(Conv1D(2, 3, strides=2),
                                              (16, 2)))
    add("conv1d-batch1", lambda: check_layer(Conv1D(2, 3), (11, 1), batch=1))
    add("maxpool", lambda: check_layer(MaxPooling1D(3), (12, 2)))
    # remainder path: length 14 is not divisible by pool size 4
    add("maxpool-remainder", lambda: check_layer(MaxPooling1D(4), (14, 2)))
    add("maxpool-batch1",
        lambda: check_layer(MaxPooling1D(3), (10, 2), batch=1))
    add("dropout-eval",
        lambda: check_layer(Dropout(0.4), (7,), training=False))
    for act in ("relu", "tanh", "sigmoid", "softmax"):
        add(f"activation-{act}",
            lambda act=act: check_layer(Activation(act), (6,)))
    add("identity", lambda: check_layer(Identity(), (5,)))
    add("flatten", lambda: check_layer(Flatten(), (4, 3)))
    add("concatenate",
        lambda: check_layer(Concatenate(), [(4,), (3,), (5,)]))
    add("add-aligned", lambda: check_layer(Add(), [(4,), (4,)]))
    # zero-padding width alignment path
    add("add-padded", lambda: check_layer(Add(), [(6,), (3,), (4,)]))
    add("add-batch1", lambda: check_layer(Add(), [(4,), (2,)], batch=1))
    add("mse", lambda: check_loss(
        MeanSquaredError(),
        np.random.default_rng(0).standard_normal((5, 3)),
        np.random.default_rng(1).standard_normal((5, 3))))
    add("crossentropy", lambda: _crossentropy_check())
    add("lstm-policy", lambda: check_policy([3, 4, 2]))
    # sequence length 1 and batch size 1 edge paths
    add("lstm-policy-len1", lambda: check_policy([5], batch=2))
    add("lstm-policy-batch1", lambda: check_policy([3, 2], batch=1))
    add("ppo-surrogate", lambda: check_ppo_objective())
    return checks


def _crossentropy_check() -> GradCheckResult:
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((5, 4))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    pred = e / e.sum(axis=-1, keepdims=True)
    target = np.eye(4)[rng.integers(0, 4, size=5)]
    return check_loss(CategoricalCrossentropy(), pred, target,
                      name="CategoricalCrossentropy")


def run_all(verbose: bool = True) -> list[GradCheckResult]:
    """Run the full default suite; returns one result per check."""
    results = []
    for name, thunk in default_checks():
        res = thunk()
        results.append(res)
        if verbose:
            status = "ok" if res.ok else "FAIL"
            print(f"{name:24s} {status:4s} max_err={res.max_err:9.3e} "
                  f"entries={res.n_checked}")
    return results
