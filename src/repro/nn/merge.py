"""Multi-input merge layers: Concatenate and Add.

These implement the paper's cell/structure output rules (``Concatenate``)
and the ``Add`` ConstantNode used in the Uno search space.  Unlike
single-input layers they take a *list* of input arrays.

``Add`` follows the residual-connection convention used by NAS systems for
heterogeneous tensors: when operand widths differ, shorter operands are
zero-padded to the widest width before summation (a projection-free
alignment that keeps the operation parameter-free, which matters because
``Add`` nodes are excluded from the trainable search space).

Both layers are dtype-preserving (the merged output keeps the promoted
dtype of the operands rather than forcing float64).  ``Add`` writes into
a pooled buffer when the execution plan marks its output as reusable;
``Concatenate`` never does, because a fresh ``np.concatenate`` costs
less than the pool lookup.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .layers import Layer

__all__ = ["MergeLayer", "Concatenate", "Add"]


class MergeLayer(Layer):
    """Base class for layers combining several inputs."""

    def build_multi(self, input_shapes: list[tuple[int, ...]],
                    rng: np.random.Generator) -> tuple[int, ...]:
        raise NotImplementedError

    def forward_multi(self, xs: list[np.ndarray], training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward_multi(self, grad_out: np.ndarray) -> list[np.ndarray]:
        raise NotImplementedError

    # single-input protocol degenerates to the multi-input one
    def build(self, input_shape, rng):
        return self.build_multi([input_shape], rng)

    def forward(self, x, training=False):
        return self.forward_multi([x], training)

    def backward(self, grad_out):
        return self.backward_multi(grad_out)[0]


class Concatenate(MergeLayer):
    """Concatenate flat feature vectors along the feature axis."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        #: each operand's (first, past-last) column in the output
        self._spans: list[tuple[int, int]] = []

    def build_multi(self, input_shapes, rng):
        for s in input_shapes:
            if len(s) != 1:
                raise ValueError(f"Concatenate expects flat inputs, got {s}")
        ends = list(accumulate(s[0] for s in input_shapes))
        self._spans = list(zip([0] + ends[:-1], ends))
        self.built = True
        self.input_shape = tuple(input_shapes[0])
        self.output_shape = (ends[-1],)
        return self.output_shape

    def forward_multi(self, xs, training=False):
        if len(xs) == 1:
            return xs[0]
        return np.concatenate(xs, axis=-1)

    def backward_multi(self, grad_out):
        return [grad_out[..., lo:hi] for lo, hi in self._spans]


class Add(MergeLayer):
    """Elementwise addition with zero-padding width alignment."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._widths: list[int] = []
        self._out_width = 0

    def build_multi(self, input_shapes, rng):
        for s in input_shapes:
            if len(s) != 1:
                raise ValueError(f"Add expects flat inputs, got {s}")
        self._widths = [s[0] for s in input_shapes]
        self._out_width = max(self._widths)
        self.built = True
        self.input_shape = tuple(input_shapes[0])
        self.output_shape = (self._out_width,)
        return self.output_shape

    def forward_multi(self, xs, training=False):
        dt = np.result_type(*[x.dtype for x in xs])
        if self._pool is not None and self._reuse_out:
            out = self._scratch("out", (xs[0].shape[0], self._out_width), dt,
                                zero=True)
        else:
            out = np.zeros((xs[0].shape[0], self._out_width), dtype=dt)
        for x in xs:
            out[:, :x.shape[-1]] += x
        return out

    def backward_multi(self, grad_out):
        return [grad_out[:, :w] for w in self._widths]
