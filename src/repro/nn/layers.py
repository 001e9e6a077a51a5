"""Core layers: Dense, Activation, Dropout, Identity.

Every layer follows the same protocol:

* ``build(input_shape, rng)`` — allocate parameters given the per-sample
  input shape (batch dimension excluded) and return the output shape;
* ``forward(x, training)`` — compute the output for a batch, caching what
  ``backward`` needs;
* ``backward(grad_out)`` — accumulate parameter gradients and return the
  gradient with respect to the input;
* ``parameters()`` — the list of :class:`~repro.nn.tensor.Parameter`
  objects owned by the layer (shared parameters appear in several layers'
  lists; the model deduplicates by identity).

Layers are stateful across a single forward/backward pair, mirroring the
explicit staged execution used by the graph model.

When a layer runs under a compiled
:class:`~repro.nn.engine.ExecutionPlan`, the plan attaches a
:class:`~repro.nn.engine.BufferPool` (``self._pool``) and marks whether
the layer's output may be written into a reused buffer
(``self._reuse_out``; false for the model output and anything aliasing
it).  Standalone layers (``self._pool is None``) allocate fresh arrays
every call, exactly like the seed implementation.
"""

from __future__ import annotations

import numpy as np

from .initializers import glorot_uniform
from .tensor import Parameter

__all__ = ["Layer", "Dense", "Activation", "Dropout", "Identity", "ACTIVATIONS"]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(x.dtype)


def _tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 - y * y


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # overflow-free: 1/(1+e^−x) for x ≥ 0 and e^x/(1+e^x) below.  With
    # e = e^−|x| in [0, 1] both are n/(1+e), where n = max(e, [x ≥ 0]) is
    # exactly 1 or e, so each element goes through the operations its
    # branch of a boolean mask would, with no gather and no select
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _sigmoid_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def _linear(x: np.ndarray) -> np.ndarray:
    return x


def _linear_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


#: name -> (function, gradient-as-function-of-(input, output)).  ``softmax``
#: is special-cased in :meth:`Activation.backward` because its Jacobian is
#: not elementwise.
ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "tanh": (_tanh, _tanh_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "linear": (_linear, _linear_grad),
    "softmax": (_softmax, None),
}


def _forward_activation(layer: "Layer", pre: np.ndarray) -> np.ndarray:
    """Apply ``layer.activation`` to a pre-activation batch.

    Shared by :class:`Dense` and :class:`~repro.nn.conv.Conv1D`.  relu and
    tanh write into the layer's pooled output buffer when the execution
    plan allows output reuse; everything else allocates as before.
    """
    act = layer.activation
    if act == "linear":
        return pre
    if layer._pool is not None and layer._reuse_out and act in ("relu", "tanh"):
        out = layer._scratch("act_out", pre.shape, pre.dtype)
        if act == "relu":
            np.maximum(pre, 0.0, out=out)
        else:
            np.tanh(pre, out=out)
        return out
    return ACTIVATIONS[act][0](pre)


def _backward_activation(layer: "Layer", grad_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the pre-activation, from the layer's caches.

    The returned array may be a pooled scratch buffer (or, for linear,
    ``grad_out`` itself); callers only read it within the current
    backward pass.
    """
    act = layer.activation
    if act == "softmax":
        s = layer._out
        dot = (grad_out * s).sum(axis=-1, keepdims=True)
        return s * (grad_out - dot)
    if act == "linear":
        return grad_out
    _, gfn = ACTIVATIONS[act]
    if layer._pool is not None:
        buf = layer._scratch("act_bwd", grad_out.shape, grad_out.dtype)
        if act == "relu":
            np.multiply(grad_out, layer._pre > 0.0, out=buf)
        else:
            np.multiply(grad_out, gfn(layer._pre, layer._out), out=buf)
        return buf
    return grad_out * gfn(layer._pre, layer._out)


class Layer:
    """Base class; see module docstring for the protocol."""

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self.built = False
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None
        #: attached by ExecutionPlan; None for standalone layers
        self._pool = None
        #: True when the plan proved this layer's output never aliases
        #: the model output, so it may live in a reused buffer
        self._reuse_out = False

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        return self.output_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        return []

    def _scratch(self, role: str, shape: tuple[int, ...], dtype,
                 zero: bool = False) -> np.ndarray:
        """A scratch array: pooled under a plan, freshly allocated otherwise."""
        if self._pool is None:
            return np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
        return self._pool.get(id(self), role, shape, dtype, zero)

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class Identity(Layer):
    """Pass-through layer; the ``Identity`` option of every variable node."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Dense(Layer):
    """Fully connected layer ``y = act(x @ W + b)``.

    ``units`` and ``activation`` mirror the paper's ``Dense(x, y)`` search
    space option.  A flat input is required; use
    :class:`~repro.nn.conv.Flatten` upstream for rank-2 features.

    Weight sharing (MirrorNode semantics) is achieved by passing the
    ``weights`` of a previously built Dense layer via ``share_from``.
    """

    def __init__(self, units: int, activation: str = "linear", name: str = "",
                 share_from: "Dense | None" = None) -> None:
        super().__init__(name)
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.units = units
        self.activation = activation
        self.share_from = share_from
        self.w: Parameter | None = None
        self.b: Parameter | None = None
        self._x: np.ndarray | None = None
        self._pre: np.ndarray | None = None
        self._out: np.ndarray | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(f"Dense expects flat input, got shape {input_shape}")
        d = input_shape[0]
        if self.share_from is not None:
            src = self.share_from
            if not src.built:
                raise RuntimeError("share_from layer must be built first")
            if src.w.shape != (d, self.units):
                raise ValueError(
                    f"shared weights shape {src.w.shape} incompatible with "
                    f"({d}, {self.units})")
            self.w, self.b = src.w, src.b
        else:
            self.w = Parameter(glorot_uniform((d, self.units), rng), f"{self.name}.w")
            self.b = Parameter(np.zeros(self.units), f"{self.name}.b")
        self.built = True
        self.input_shape = tuple(input_shape)
        self.output_shape = (self.units,)
        return self.output_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        w, b = self.w.value, self.b.value
        # matmul into a reused buffer when the plan allows it; with a
        # linear activation the pre-activation IS the output, so reuse is
        # additionally gated on _reuse_out
        if (self._pool is not None and x.dtype == w.dtype and x.ndim == 2
                and (self.activation != "linear" or self._reuse_out)):
            pre = self._scratch("pre", (x.shape[0], self.units), w.dtype)
            np.matmul(x, w, out=pre)
            pre += b
        else:
            pre = x @ w + b
        self._pre = pre
        self._out = _forward_activation(self, pre)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_pre = _backward_activation(self, grad_out)
        self.w.grad += self._x.T @ grad_pre
        self.b.grad += grad_pre.sum(axis=0)
        return grad_pre @ self.w.value.T

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b] if self.w is not None else []


class Activation(Layer):
    """Standalone activation layer (the NT3 search space's ``Act_Node``)."""

    def __init__(self, activation: str, name: str = "") -> None:
        super().__init__(name)
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self._x: np.ndarray | None = None
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        fn, _ = ACTIVATIONS[self.activation]
        self._out = fn(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self.activation == "softmax":
            s = self._out
            dot = (grad_out * s).sum(axis=-1, keepdims=True)
            return s * (grad_out - dot)
        _, gfn = ACTIVATIONS[self.activation]
        return grad_out * gfn(self._x, self._out)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time.

    The mask RNG is owned by the layer so that training runs are
    reproducible under an agent-specific seed, as required by the paper's
    reward-estimation protocol.
    """

    def __init__(self, rate: float, name: str = "") -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng: np.random.Generator | None = None
        self._mask: np.ndarray | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        self._rng = np.random.default_rng(rng.integers(2**63))
        return super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        # mask kept in x's dtype so float32 batches stay float32
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype)
        mask /= np.asarray(keep, dtype=x.dtype)
        self._mask = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask
