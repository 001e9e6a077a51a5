"""Compiled execution engine: plans, buffer pools, flat parameter packs.

Three pieces turn the interpreted graph walk of the seed substrate into a
compiled hot path:

* :class:`ExecutionPlan` — frozen at :meth:`GraphModel.build` time.  The
  topological order is lowered to index-based *slots* (integer positions
  in a reused activation list) so forward/backward never perform dict
  lookups or ``isinstance(MergeLayer)`` checks per node, and every layer
  is handed the shared :class:`BufferPool` so its scratch arrays are
  reused across batches instead of reallocated.
* :class:`BufferPool` — scratch arrays keyed by (owner, role, shape,
  dtype).  The shape key includes the batch dimension, so alternating
  between the common batch size and a smaller final partial batch keeps
  both buffers cached instead of thrashing.
* :class:`FlatParameterVector` — every deduplicated parameter packed
  into one contiguous vector, with each :class:`Parameter`'s ``value``
  and ``grad`` rebound to *views* of the pack.  Whole-model optimizer
  steps and parameter-server exchange then operate on a single array;
  flatten/unflatten is a no-copy reshape.

Aliasing contract: with a plan active, arrays returned by
``forward``/``backward`` for *interior* nodes may be overwritten by the
next forward/backward call (they live in the pool).  The model's final
output is always freshly allocated — nodes whose value can reach the
output through pass-through layers (Identity, Flatten, Dropout,
Activation, single-input Concatenate) are excluded from output-buffer
reuse — so collecting predictions across batches, as
:meth:`Trainer.evaluate` does, stays safe.
"""

from __future__ import annotations

import numpy as np

from . import config
from .conv import Flatten
from .layers import Activation, Dropout, Identity
from .merge import Concatenate, MergeLayer
from .tensor import Parameter

__all__ = ["BufferPool", "ExecutionPlan", "FlatParameterVector"]

#: Layers that may return (a view of) their input unchanged.  Any node
#: that reaches the model output exclusively through these aliases the
#: returned prediction and must not write into a reused buffer.
_PASS_THROUGH = (Identity, Flatten, Dropout, Activation, Concatenate)


class BufferPool:
    """Reusable scratch arrays for one model's forward/backward passes."""

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[tuple, np.ndarray] = {}

    def get(self, owner: int, role: str, shape: tuple[int, ...],
            dtype, zero: bool = False) -> np.ndarray:
        """Fetch (allocating on first use) the buffer for ``owner``/``role``.

        ``zero=True`` returns the buffer zero-filled; reused buffers are
        re-zeroed in place, which is cheaper than a fresh ``np.zeros``.
        """
        key = (owner, role, shape, np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
            self._bufs[key] = buf
        elif zero:
            buf.fill(0)
        return buf

    def clear(self) -> None:
        self._bufs.clear()


class _Step:
    """One lowered node: a layer plus integer input/output slots."""

    __slots__ = ("layer", "multi", "in_slots", "out_slot")

    def __init__(self, layer, multi: bool, in_slots: tuple[int, ...],
                 out_slot: int) -> None:
        self.layer = layer
        self.multi = multi
        self.in_slots = in_slots
        self.out_slot = out_slot


class ExecutionPlan:
    """Index-based forward/backward program compiled from a built model."""

    def __init__(self, model) -> None:
        names = list(model.inputs) + list(model._order)
        self.slot_of = {n: i for i, n in enumerate(names)}
        self.n_slots = len(names)
        self.input_slots = [(name, self.slot_of[name])
                            for name in model.inputs]
        self.input_shapes = {name: spec.shape
                             for name, spec in model.inputs.items()}
        self.out_slot = self.slot_of[model.output_name]
        self.dtype = model.dtype
        self.pool = BufferPool()

        escaping = self._escaping_nodes(model)
        self.steps: list[_Step] = []
        for name in model._order:
            layer = model.layers[name]
            layer._pool = self.pool
            layer._reuse_out = name not in escaping
            self.steps.append(_Step(
                layer, isinstance(layer, MergeLayer),
                tuple(self.slot_of[s] for s in model.node_inputs[name]),
                self.slot_of[name]))
        # slot lists reused across calls; entries are rebound, not resized
        self._values: list[np.ndarray | None] = [None] * self.n_slots
        self._grads: list[np.ndarray | None] = [None] * self.n_slots

    @staticmethod
    def _escaping_nodes(model) -> set[str]:
        """Nodes whose activation may alias the model output."""
        escaping: set[str] = set()
        stack = [model.output_name]
        while stack:
            name = stack.pop()
            if name in escaping or name in model.inputs:
                continue
            escaping.add(name)
            if isinstance(model.layers[name], _PASS_THROUGH):
                stack.extend(model.node_inputs[name])
        return escaping

    # -- execution ------------------------------------------------------
    def run_forward(self, inputs: dict[str, np.ndarray],
                    training: bool) -> np.ndarray:
        dt = self.dtype
        values = self._values
        for name, slot in self.input_slots:
            values[slot] = np.asarray(inputs[name], dtype=dt)
        for step in self.steps:
            if step.multi:
                values[step.out_slot] = step.layer.forward_multi(
                    [values[i] for i in step.in_slots], training)
            else:
                values[step.out_slot] = step.layer.forward(
                    values[step.in_slots[0]], training)
        return values[self.out_slot]

    def run_backward(self, grad_output: np.ndarray) -> dict[str, np.ndarray]:
        grads = self._grads
        for i in range(self.n_slots):
            grads[i] = None
        grads[self.out_slot] = np.asarray(grad_output, dtype=self.dtype)
        for step in reversed(self.steps):
            g = grads[step.out_slot]
            if g is None:
                continue  # node not on a path to the output
            grads[step.out_slot] = None
            if step.multi:
                in_grads = step.layer.backward_multi(g)
            else:
                in_grads = (step.layer.backward(g),)
            for slot, ig in zip(step.in_slots, in_grads):
                if grads[slot] is None:
                    grads[slot] = ig
                else:
                    grads[slot] = grads[slot] + ig
        out: dict[str, np.ndarray] = {}
        for name, slot in self.input_slots:
            g = grads[slot]
            if g is None:
                g = np.zeros((1,) + self.input_shapes[name], dtype=self.dtype)
            out[name] = g
            grads[slot] = None
        return out

    def snapshot_values(self) -> dict[str, np.ndarray]:
        """Copies of all recorded activations (interior activations live
        in reused buffers, so diffing tools must snapshot them before the
        next forward call)."""
        return {name: self._values[slot].copy()
                for name, slot in self.slot_of.items()
                if self._values[slot] is not None}


class FlatParameterVector:
    """Parameters packed into one contiguous vector with live views back.

    Construction deduplicates by identity (shared/mirrored parameters are
    packed once), copies current values/grads into two flat arrays, and
    rebinds each :class:`Parameter`'s ``value`` and ``grad`` to reshaped
    views of them.  From then on per-parameter and whole-vector access
    observe the same storage: a fused optimizer updates ``values`` with a
    handful of vectorized ops, and parameter-server exchange reads or
    writes the vector without any flatten/unflatten copies.
    """

    __slots__ = ("params", "values", "grads", "slices", "size")

    def __init__(self, params: list[Parameter]) -> None:
        seen: dict[int, Parameter] = {}
        for p in params:
            seen.setdefault(id(p), p)
        self.params = list(seen.values())
        if self.params:
            dtype = np.result_type(*[p.value.dtype for p in self.params])
        else:
            dtype = config.get_default_dtype()
        sizes = [p.size for p in self.params]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self.size = int(offsets[-1])
        self.values = np.empty(self.size, dtype)
        self.grads = np.zeros(self.size, dtype)
        self.slices: list[tuple[int, int]] = []
        for p, lo, hi in zip(self.params, offsets[:-1], offsets[1:]):
            shape = p.value.shape
            self.values[lo:hi] = p.value.reshape(-1)
            self.grads[lo:hi] = p.grad.reshape(-1)
            p.value = self.values[lo:hi].reshape(shape)
            p.grad = self.grads[lo:hi].reshape(shape)
            self.slices.append((int(lo), int(hi)))

    def __len__(self) -> int:
        return self.size

    def zero_grad(self) -> None:
        self.grads.fill(0)

    def copy_values(self) -> np.ndarray:
        """Snapshot of the packed values (safe to keep across updates)."""
        return self.values.copy()

    def set_values(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec)
        if vec.shape != (self.size,):
            raise ValueError(
                f"expected {self.size} entries, got {vec.size}")
        self.values[...] = vec

    def add_values(self, delta: np.ndarray) -> None:
        delta = np.asarray(delta)
        if delta.shape != (self.size,):
            raise ValueError(
                f"expected {self.size} entries, got {delta.size}")
        self.values += delta
