"""DAG model container.

The paper's architectures are multi-input directed acyclic graphs (three
input layers for Combo, four for Uno, skip connections everywhere), so the
substrate's model class is graph-first rather than sequential: named nodes
hold layers, edges carry activations, and forward/backward execute a
compiled :class:`~repro.nn.engine.ExecutionPlan` frozen at build time —
index-based slot lists instead of per-step dict lookups, pooled
activation/gradient buffers instead of per-batch allocations.

Parameters are deduplicated *by identity* when collected, which is what
makes MirrorNode weight sharing count shared submodels once — exactly the
accounting the paper's trainable-parameter ratios rely on.  The
deduplicated list is cached at build time (the graph is immutable once
built — ``add``/``add_input`` raise), so ``parameters()``/``zero_grad()``
are O(1) lookups per call rather than per-batch graph re-walks.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Iterable

import numpy as np

from . import config
from .engine import ExecutionPlan, FlatParameterVector
from .layers import Layer
from .merge import MergeLayer
from .tensor import Parameter

__all__ = ["GraphModel", "InputSpec"]


class InputSpec:
    """A placeholder node carrying a per-sample input shape."""

    __slots__ = ("name", "shape")

    def __init__(self, name: str, shape: tuple[int, ...]) -> None:
        self.name = name
        self.shape = tuple(shape)


class GraphModel:
    """A DAG of layers with explicit forward/backward execution.

    Usage::

        m = GraphModel()
        m.add_input("x", shape=(16,))
        m.add("h", Dense(32, "relu"), inputs=["x"])
        m.add("y", Dense(1), inputs=["h"])
        m.set_output("y")
        m.build(np.random.default_rng(0))
        pred = m.forward({"x": batch})
    """

    def __init__(self) -> None:
        self.inputs: dict[str, InputSpec] = {}
        self.layers: dict[str, Layer] = {}
        self.node_inputs: dict[str, list[str]] = {}
        self.output_name: str | None = None
        self.built = False
        self.dtype: np.dtype | None = None
        self._order: list[str] = []
        self._consumers: dict[str, list[str]] = {}
        self._plan: ExecutionPlan | None = None
        self._params: list[Parameter] | None = None
        self._flat: FlatParameterVector | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str, shape: Iterable[int]) -> None:
        self._check_fresh(name)
        self.inputs[name] = InputSpec(name, tuple(shape))

    def add(self, name: str, layer: Layer, inputs: list[str]) -> None:
        self._check_fresh(name)
        if not inputs:
            raise ValueError(f"node {name!r} must have at least one input")
        if len(inputs) > 1 and not isinstance(layer, MergeLayer):
            raise ValueError(
                f"node {name!r}: layer {type(layer).__name__} accepts one "
                f"input but {len(inputs)} were given")
        for src in inputs:
            if src not in self.inputs and src not in self.layers:
                raise KeyError(f"node {name!r} references unknown input {src!r}")
        self.layers[name] = layer
        self.node_inputs[name] = list(inputs)

    def set_output(self, name: str) -> None:
        if name not in self.layers and name not in self.inputs:
            raise KeyError(f"unknown output node {name!r}")
        self.output_name = name

    def _check_fresh(self, name: str) -> None:
        if name in self.inputs or name in self.layers:
            raise ValueError(f"duplicate node name {name!r}")
        if self.built:
            raise RuntimeError("cannot add nodes to a built model")

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self, rng: np.random.Generator, dtype=None) -> "GraphModel":
        """Build layers, then compile the execution plan.

        ``dtype`` fixes the model's compute dtype (weights created here
        and input/gradient casts); it defaults to the configured
        substrate dtype (:func:`repro.nn.config.get_default_dtype`).
        """
        if self.output_name is None:
            raise RuntimeError("set_output must be called before build")
        dt = np.dtype(dtype) if dtype is not None else config.get_default_dtype()
        self._order = self._topological_order()
        shapes: dict[str, tuple[int, ...]] = {
            name: spec.shape for name, spec in self.inputs.items()}
        with config.dtype_scope(dt):
            for name in self._order:
                layer = self.layers[name]
                if layer.built:
                    # Pre-built layers (e.g. by the NAS compiler, which builds
                    # eagerly to share mirror-node weights) keep their state.
                    shapes[name] = layer.output_shape
                    continue
                in_shapes = [shapes[s] for s in self.node_inputs[name]]
                if isinstance(layer, MergeLayer):
                    shapes[name] = layer.build_multi(in_shapes, rng)
                else:
                    shapes[name] = layer.build(in_shapes[0], rng)
        self._consumers = {n: [] for n in list(self.inputs) + list(self.layers)}
        for name, srcs in self.node_inputs.items():
            for s in srcs:
                self._consumers[s].append(name)
        self.built = True
        self.dtype = dt
        self.output_shape = shapes[self.output_name]
        # freeze: deduplicated parameter list, then the compiled plan.
        # The graph cannot be mutated once built (add() raises), so both
        # stay valid for the model's lifetime.
        self._params = self._collect_parameters()
        self._plan = ExecutionPlan(self)
        self._flat = None
        return self

    def _topological_order(self) -> list[str]:
        indeg = {n: len(srcs) - sum(s in self.inputs for s in srcs)
                 for n, srcs in self.node_inputs.items()}
        layer_consumers: dict[str, list[str]] = {n: [] for n in self.layers}
        for n, srcs in self.node_inputs.items():
            for s in srcs:
                if s in self.layers:
                    layer_consumers[s].append(n)
        ready = deque(sorted(n for n, d in indeg.items() if d == 0))
        order: list[str] = []
        while ready:
            n = ready.popleft()
            order.append(n)
            for c in layer_consumers[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(self.layers):
            raise ValueError("graph contains a cycle")
        return order

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward(self, inputs: dict[str, np.ndarray], training: bool = False) -> np.ndarray:
        if not self.built:
            raise RuntimeError("model is not built")
        missing = set(self.inputs) - set(inputs)
        if missing:
            raise KeyError(f"missing inputs: {sorted(missing)}")
        return self._plan.run_forward(inputs, training)

    def backward(self, grad_output: np.ndarray) -> dict[str, np.ndarray]:
        """Backpropagate; returns gradients w.r.t. each model input."""
        return self._plan.run_backward(grad_output)

    # ------------------------------------------------------------------
    # eager reference execution (repro.verify's differential oracle)
    # ------------------------------------------------------------------
    @contextmanager
    def _eager_scope(self):
        """Temporarily detach every layer from the compiled plan's buffer
        pool so execution allocates fresh arrays, exactly like the seed's
        interpreted graph walk."""
        saved = [(layer, layer._pool, layer._reuse_out)
                 for layer in self.layers.values()]
        for layer, _, _ in saved:
            layer._pool = None
            layer._reuse_out = False
        try:
            yield
        finally:
            for layer, pool, reuse in saved:
                layer._pool = pool
                layer._reuse_out = reuse

    def forward_eager(self, inputs: dict[str, np.ndarray],
                      training: bool = False) -> np.ndarray:
        """Dict-based interpreted forward pass (no plan, no buffer reuse).

        Semantically equivalent to :meth:`forward` but structurally
        independent of the compiled engine: the topological walk resolves
        node inputs by name and every layer allocates fresh output
        arrays.  Activations are kept in :attr:`eager_values` so the
        differential tester can compare them node by node against
        :meth:`node_values`.
        """
        if not self.built:
            raise RuntimeError("model is not built")
        missing = set(self.inputs) - set(inputs)
        if missing:
            raise KeyError(f"missing inputs: {sorted(missing)}")
        dt = self.dtype
        values: dict[str, np.ndarray] = {
            name: np.asarray(inputs[name], dtype=dt) for name in self.inputs}
        with self._eager_scope():
            for name in self._order:
                layer = self.layers[name]
                srcs = self.node_inputs[name]
                if isinstance(layer, MergeLayer):
                    values[name] = layer.forward_multi(
                        [values[s] for s in srcs], training)
                else:
                    values[name] = layer.forward(values[srcs[0]], training)
        self._eager_values = values
        return values[self.output_name]

    def backward_eager(self, grad_output: np.ndarray) -> dict[str, np.ndarray]:
        """Interpreted backward pass matching :meth:`forward_eager`.

        Must follow a :meth:`forward_eager` call (layer caches carry the
        forward intermediates).  Returns gradients w.r.t. each input.
        """
        dt = self.dtype
        grads: dict[str, np.ndarray] = {
            self.output_name: np.asarray(grad_output, dtype=dt)}
        with self._eager_scope():
            for name in reversed(self._order):
                g = grads.pop(name, None)
                if g is None:
                    continue  # node not on a path to the output
                layer = self.layers[name]
                srcs = self.node_inputs[name]
                if isinstance(layer, MergeLayer):
                    in_grads = layer.backward_multi(g)
                else:
                    in_grads = [layer.backward(g)]
                for src, ig in zip(srcs, in_grads):
                    if src in grads:
                        grads[src] = grads[src] + ig
                    else:
                        grads[src] = ig
        out: dict[str, np.ndarray] = {}
        for name, spec in self.inputs.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros((1,) + spec.shape, dtype=dt)
            out[name] = g
        return out

    @property
    def eager_values(self) -> dict[str, np.ndarray]:
        """Node activations of the most recent :meth:`forward_eager`."""
        values = getattr(self, "_eager_values", None)
        if values is None:
            raise RuntimeError("no eager forward pass has been run")
        return values

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _collect_parameters(self) -> list[Parameter]:
        seen: dict[int, Parameter] = {}
        for name in self._order or self.layers:
            for p in self.layers[name].parameters():
                seen.setdefault(id(p), p)
        return list(seen.values())

    def parameters(self) -> list[Parameter]:
        """All trainable parameters, shared ones counted once.

        After ``build()`` this returns a copy of the cached deduplicated
        list (no per-call graph walk); before build it re-walks layers.
        """
        if self._params is not None:
            return list(self._params)
        return self._collect_parameters()

    def flatten_parameters(self) -> FlatParameterVector:
        """Pack all parameters into one contiguous vector (cached).

        Parameter ``value``/``grad`` arrays become views of the pack; see
        :class:`~repro.nn.engine.FlatParameterVector`.  Used by the fused
        optimizers and by parameter-server weight exchange.
        """
        if not self.built:
            raise RuntimeError("model must be built before flattening")
        if self._flat is None:
            self._flat = FlatParameterVector(self._params)
        return self._flat

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        if self._flat is not None:
            self._flat.zero_grad()
            return
        for p in (self._params if self._params is not None
                  else self._collect_parameters()):
            p.zero_grad()

    def node_values(self) -> dict[str, np.ndarray]:
        """Copies of every node activation from the most recent forward.

        Interior activations live in reused buffers, so these are
        snapshots, safe to keep across later forward calls; the
        differential tester diffs them against :attr:`eager_values`.
        """
        if self._plan is None:
            raise RuntimeError("model is not built")
        return self._plan.snapshot_values()

    def summary(self) -> str:
        lines = [f"{'node':<28}{'layer':<18}{'params':>10}"]
        for name in self.inputs:
            lines.append(f"{name:<28}{'Input':<18}{0:>10}")
        for name in (self._order or self.layers):
            layer = self.layers[name]
            lines.append(f"{name:<28}{type(layer).__name__:<18}{layer.num_params:>10}")
        lines.append(f"total trainable parameters: {self.num_params}")
        return "\n".join(lines)
