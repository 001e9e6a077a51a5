"""LSTM cell with explicit backpropagation through time.

The paper's controller is a single-layer LSTM with 32 units driving both
the policy head and the value head.  Because PPO needs gradients of a
clipped surrogate objective through the whole action sequence, the cell
exposes stateless ``step``/``backward_step`` functions operating on
explicit carry and cache values; the policy network owns the time loop and
stores one cache per step.

:class:`FusedLSTM` is the hot-path driver over the same cell: one stacked
gate GEMM per timestep over the concatenated ``[x, h]`` block, per-step
intermediates in preallocated ``(T, B, ·)`` buffers reused across
same-shape passes, whole-sequence gate-derivative multipliers so a
backward step is a handful of numpy calls, and the whole-sequence
weight gradient folded into a single GEMM.  The reference
``step``/``backward_step`` pair stays as the unfused ground truth the
fused path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initializers import glorot_uniform, orthogonal
from .layers import _sigmoid
from .tensor import Parameter

__all__ = ["LSTMCell", "LSTMStepCache", "FusedLSTM"]


@dataclass
class LSTMStepCache:
    """Intermediates of one time step needed by ``backward_step``."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray


class LSTMCell:
    """Standard LSTM cell; gate order is (input, forget, cell, output)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, name: str = "lstm") -> None:
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.wx = Parameter(glorot_uniform((input_size, 4 * h), rng), f"{name}.wx")
        self.wh = Parameter(orthogonal((h, 4 * h), rng), f"{name}.wh")
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0  # unit forget-gate bias, the standard stabilizer
        self.b = Parameter(bias, f"{name}.b")

    def parameters(self) -> list[Parameter]:
        return [self.wx, self.wh, self.b]

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def initial_state(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        h = np.zeros((batch, self.hidden_size), dtype=self.wx.value.dtype)
        return h, h.copy()

    def step(self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, LSTMStepCache]:
        """One forward step; returns (h, c, cache)."""
        hsz = self.hidden_size
        z = x @ self.wx.value + h_prev @ self.wh.value + self.b.value
        i = _sigmoid(z[:, :hsz])
        f = _sigmoid(z[:, hsz:2 * hsz])
        g = np.tanh(z[:, 2 * hsz:3 * hsz])
        o = _sigmoid(z[:, 3 * hsz:])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        return h, c, LSTMStepCache(x, h_prev, c_prev, i, f, g, o, c, tanh_c)

    def backward_step(self, dh: np.ndarray, dc: np.ndarray,
                      cache: LSTMStepCache
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through one step.

        ``dh``/``dc`` are gradients flowing into this step's outputs (from
        the loss at this step plus from the next step).  Accumulates
        parameter gradients and returns ``(dx, dh_prev, dc_prev)``.
        """
        i, f, g, o = cache.i, cache.f, cache.g, cache.o
        dc_total = dc + dh * o * (1.0 - cache.tanh_c ** 2)
        do = dh * cache.tanh_c
        di = dc_total * g
        df = dc_total * cache.c_prev
        dg = dc_total * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=-1)
        self.wx.grad += cache.x.T @ dz
        self.wh.grad += cache.h_prev.T @ dz
        self.b.grad += dz.sum(axis=0)
        dx = dz @ self.wx.value.T
        dh_prev = dz @ self.wh.value.T
        dc_prev = dc_total * f
        return dx, dh_prev, dc_prev


class FusedLSTM:
    """Fused sequence driver over an :class:`LSTMCell`.

    Forward: one stacked gate GEMM per timestep over the concatenated
    ``[x, h_prev]`` row block (instead of separate input and recurrent
    GEMMs), with gates activated in place inside preallocated
    ``(T, B, ·)`` state buffers that are reused across passes of the
    same shape.  Backward: the pass's first step builds whole-sequence
    gate-derivative multipliers from the forward buffers, so each step
    is the cell-gradient carry, four multiplies and one GEMM for the
    carried gradient; a single whole-sequence GEMM then folds the
    weight gradients in :meth:`backward_finish`.

    Batching the elementwise work changes which numpy call computes a
    product, never its operands or their order: the pass is bit for bit
    the per-step formulation (``tests/test_rl_ppo.py`` pins the
    policy's numbers).  It matches the reference cell to rounding only —
    the stacked gate GEMM contracts differently from the cell's two
    GEMMs.  The stacked weight copy is refreshed on every :meth:`begin`
    because the cell's parameter arrays are views into a flat parameter
    pack that is mutated externally (fused Adam, parameter-server
    exchange, checkpoint restore).

    The driver assumes the standard pass discipline (forward over all T
    steps, then at most one backward over the same pass, from ``t = T−1``
    down); ``h_0`` and ``c_0`` are the zero initial state, as in the
    controller.
    """

    def __init__(self, cell: LSTMCell) -> None:
        self.cell = cell
        self._bufs: dict[tuple, dict[str, np.ndarray]] = {}
        self._w: np.ndarray | None = None
        self._cur: dict[str, np.ndarray] | None = None

    @property
    def hidden_states(self) -> np.ndarray:
        """The current pass's ``(T, B, H)`` hidden-state buffer."""
        return self._cur["h"]

    def begin(self, horizon: int, batch: int) -> None:
        """Start a pass: bind (or allocate) the ``(horizon, batch)``
        buffers and refresh the stacked ``[wx; wh]`` weight copy."""
        cell = self.cell
        e, hsz = cell.input_size, cell.hidden_size
        dt = cell.wx.value.dtype
        key = (horizon, batch, dt)
        bufs = self._bufs.get(key)
        if bufs is None:
            # gates holds [i | f | · | o] after the forward and becomes
            # the multiplier W = [i, f, 1 − g², o] in the backward; v is
            # V = [g, c_{t−1}, i, tanh_c] (row t+1 receives c_t, so row
            # 0's c slot stays the zero c_0, as xh[0]'s h part stays h_0)
            shapes = {"xh": (horizon, batch, e + hsz),
                      "gates": (horizon, batch, 4 * hsz),
                      "v": (horizon + 1, batch, 4 * hsz),
                      "dz": (horizon, batch, 4 * hsz),
                      "h": (horizon, batch, hsz),
                      "a": (horizon, batch, hsz),
                      "p": (batch, 4 * hsz),
                      "tmp": (batch, 2 * hsz),
                      "dc_total": (batch, hsz),
                      "dh_prev": (batch, hsz),
                      "dc_prev": (batch, hsz)}
            bufs = {name: np.zeros(shape, dtype=dt)
                    for name, shape in shapes.items()}
            # gate-slot views, made once per shape: V and P as
            # (·, B, 4, H), the two halves of tmp, dc_total broadcast
            # over three slots
            bufs["v4"] = bufs["v"].reshape(horizon + 1, batch, 4, hsz)
            p4 = bufs["p"].reshape(batch, 4, hsz)
            bufs["p_ifg"], bufs["p_o"] = p4[:, :3], p4[:, 3]
            bufs["tmp_ig"] = bufs["tmp"][:, :hsz]
            bufs["tmp_fc"] = bufs["tmp"][:, hsz:]
            bufs["dc_total3"] = bufs["dc_total"][:, None, :]
            self._bufs[key] = bufs
        if self._w is None or self._w.shape != (e + hsz, 4 * hsz) \
                or self._w.dtype != dt:
            self._w = np.empty((e + hsz, 4 * hsz), dtype=dt)
        np.copyto(self._w[:e], cell.wx.value)
        np.copyto(self._w[e:], cell.wh.value)
        self._cur = bufs

    def forward(self, xs: np.ndarray) -> np.ndarray:
        """Teacher-forced pass over the whole ``(T, B, E)`` input block;
        returns the ``(T, B, H)`` hidden states (the pass buffer)."""
        self._cur["xh"][:, :, :self.cell.input_size] = xs
        for t in range(len(xs)):
            self.step(t)
        return self._cur["h"]

    def step(self, t: int, x: np.ndarray | None = None) -> np.ndarray:
        """Advance one step on input ``x`` (B, E), or on the input
        :meth:`forward` already loaded; returns ``h_t`` as a view into
        the pass buffer."""
        cell, bufs = self.cell, self._cur
        e, hsz = cell.input_size, cell.hidden_size
        xh = bufs["xh"][t]
        if x is not None:
            xh[:, :e] = x
        if t > 0:
            xh[:, e:] = bufs["h"][t - 1]
        z = bufs["gates"][t]
        np.matmul(xh, self._w, out=z)
        z += cell.b.value
        v = bufs["v"][t]
        g = v[:, :hsz]
        np.tanh(z[:, 2 * hsz:3 * hsz], out=g)
        # σ(z) = (tanh(z/2) + 1)/2 in place over the whole gate row;
        # the g slot's output is never read
        z *= 0.5
        np.tanh(z, out=z)
        z += 1.0
        z *= 0.5
        # c_t = i·g + f·c_{t−1}; [i | f] times V's adjacent [g | c_{t−1}]
        # forms both products in one call
        c = bufs["v4"][t + 1, :, 1]
        if t > 0:
            np.multiply(z[:, :2 * hsz], v[:, :2 * hsz], out=bufs["tmp"])
            np.add(bufs["tmp_ig"], bufs["tmp_fc"], out=c)
        else:
            np.multiply(z[:, :hsz], g, out=c)
        tanh_c = v[:, 3 * hsz:]
        np.tanh(c, out=tanh_c)
        h = bufs["h"][t]
        np.multiply(z[:, 3 * hsz:], tanh_c, out=h)
        return h

    def _multipliers(self) -> None:
        """Whole-sequence gate-derivative multipliers, once per backward.

        Step ``t``'s gate gradient is ``((U·V[t])·W[t])·X[t]`` with
        ``U = [dc_total, dc_total, dc_total, dh]``, ``V = [g, c_{t−1}, i,
        tanh_c]``, ``W = [i, f, 1 − g², o]`` and ``X = [1 − i, 1 − f, 1,
        1 − o]``: the per-step products, each with its operands in their
        order (the g slot's third factor is exactly 1).  ``X`` is
        pre-filled into ``dz``, whose last multiply overwrites it, and
        ``A = (1 − tanh_c²)·o`` is the ``dh`` factor of ``dc_total``.
        """
        bufs, hsz = self._cur, self.cell.hidden_size
        gates, dz, a = bufs["gates"], bufs["dz"], bufs["a"]
        v = bufs["v"][:len(gates)]
        np.subtract(1.0, gates, out=dz)
        dz[:, :, 2 * hsz:3 * hsz] = 1.0
        v[:, :, 2 * hsz:3 * hsz] = gates[:, :, :hsz]
        g, wg = v[:, :, :hsz], gates[:, :, 2 * hsz:3 * hsz]
        np.multiply(g, g, out=wg)
        np.subtract(1.0, wg, out=wg)
        tanh_c = v[:, :, 3 * hsz:]
        np.multiply(tanh_c, tanh_c, out=a)
        np.subtract(1.0, a, out=a)
        a *= gates[:, :, 3 * hsz:]

    def backward_step(self, t: int, dh: np.ndarray, dc: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Backward through step ``t``; returns ``(dh_prev, dc_prev)``.

        Only the recurrent carry is propagated here; the pre-activation
        gate gradient is stored so :meth:`backward_finish` can fold the
        weight gradients into one whole-sequence GEMM and
        :meth:`input_grads` can recover every step's ``dx`` the same
        way.  ``dh_prev`` and ``dc_prev`` are views into scratch buffers
        overwritten by the next call — consume them before stepping
        again (passing ``dc_prev`` back in as ``dc`` is fine).
        """
        bufs, hsz = self._cur, self.cell.hidden_size
        if t == len(bufs["dz"]) - 1:
            self._multipliers()
        # dc_total = ((1 − tanh_c²)·o)·dh + dc
        dc_total = bufs["dc_total"]
        np.multiply(bufs["a"][t], dh, out=dc_total)
        dc_total += dc
        # P = U·V[t], U = [dc_total, dc_total, dc_total, dh]: one
        # broadcast multiply over the i/f/g slots, one for the o slot
        v4 = bufs["v4"]
        np.multiply(bufs["dc_total3"], v4[t, :, :3], out=bufs["p_ifg"])
        np.multiply(dh, v4[t, :, 3], out=bufs["p_o"])
        p, w, dz = bufs["p"], bufs["gates"][t], bufs["dz"][t]
        p *= w
        np.multiply(p, dz, out=dz)
        if t == 0:
            dz[:, hsz:2 * hsz] = 0.0  # c_0 == 0; +0.0, never −0.0
        dh_prev = bufs["dh_prev"]
        np.matmul(dz, self._w[self.cell.input_size:].T, out=dh_prev)
        dc_prev = bufs["dc_prev"]
        np.multiply(dc_total, w[:, hsz:2 * hsz], out=dc_prev)
        return dh_prev, dc_prev

    def backward_finish(self) -> None:
        """Fold the stored gate gradients into the cell's parameter
        gradients: one GEMM over all ``T × B`` rows."""
        cell, bufs = self.cell, self._cur
        e = cell.input_size
        horizon, batch, _ = bufs["dz"].shape
        dz2 = bufs["dz"].reshape(horizon * batch, -1)
        gw = bufs["xh"].reshape(horizon * batch, -1).T @ dz2
        cell.wx.grad += gw[:e]
        cell.wh.grad += gw[e:]
        cell.b.grad += dz2.sum(axis=0)

    def input_grads(self) -> np.ndarray:
        """Every step's input gradient ``dx`` in one whole-sequence GEMM
        over the stored gate gradients; ``(T, B, E)``, freshly
        allocated.  Valid after the pass's last :meth:`backward_step`."""
        cell, bufs = self.cell, self._cur
        e = cell.input_size
        horizon, batch, _ = bufs["dz"].shape
        dz2 = bufs["dz"].reshape(horizon * batch, -1)
        return (dz2 @ self._w[:e].T).reshape(horizon, batch, e)
