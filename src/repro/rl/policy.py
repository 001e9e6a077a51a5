"""LSTM controller: the agent's policy and value networks.

Per §5, both the policy and value networks are a single-layer LSTM with
32 units.  An architecture is generated token by token: at step *t* the
network consumes an embedding of the previous action, updates its
recurrent state, and emits masked logits over the *t*-th variable node's
choices plus a scalar state-value estimate.  Variable nodes generally
have different choice counts, so logits are computed at the maximum
width and invalid actions are masked to (effectively) −∞.

``forward_train``/``backward_train`` implement full backpropagation
through time for the PPO surrogate; ``sample`` is the cheap no-grad
rollout used to generate architectures.

The hot path is fused end to end: the recurrent state advances through
:class:`~repro.nn.recurrent.FusedLSTM` (one stacked gate GEMM per step,
preallocated state buffers) and the policy and value heads are stacked
into a single ``(H, A+1)`` matrix so each step computes logits and value
with one head GEMM.  ``sample`` and ``forward_train`` both
run the identical fused step, so a freshly sampled rollout re-evaluated
by ``forward_train`` reproduces its log-probabilities bit for bit (PPO's
first-epoch ratio is exactly 1).  The stacked copies are refreshed at
the start of every pass because the parameter arrays are views into the
flat pack mutated by the optimizer and the parameter-server exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.engine import FlatParameterVector
from ..nn.initializers import glorot_uniform
from ..nn.recurrent import FusedLSTM, LSTMCell
from ..nn.tensor import Parameter

__all__ = ["LSTMPolicy", "Rollout"]

_NEG = -1e9  # mask value: exp(-1e9 - logZ) underflows to exactly 0.0


@dataclass
class Rollout:
    """A batch of sampled action sequences with on-policy statistics."""

    actions: np.ndarray     # (B, T) int
    logprobs: np.ndarray    # (B, T)
    values: np.ndarray      # (B, T)


class LSTMPolicy:
    """Actor-critic controller over a fixed action-dimension sequence."""

    def __init__(self, action_dims: list[int], hidden: int = 32,
                 embed_dim: int = 16, seed: int = 0) -> None:
        if not action_dims:
            raise ValueError("need at least one action")
        if any(d <= 0 for d in action_dims):
            raise ValueError("action dims must be positive")
        self.action_dims = list(action_dims)
        self.horizon = len(action_dims)
        self.max_dim = max(action_dims)
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        # token 0 = <start>, token 1+a = previous action a
        self.embedding = Parameter(
            rng.normal(0.0, 0.1, size=(1 + self.max_dim, embed_dim)),
            "policy.embedding")
        self.lstm = LSTMCell(embed_dim, hidden, rng, "policy.lstm")
        self.w_pi = Parameter(glorot_uniform((hidden, self.max_dim), rng),
                              "policy.w_pi")
        self.b_pi = Parameter(np.zeros(self.max_dim), "policy.b_pi")
        self.w_v = Parameter(glorot_uniform((hidden, 1), rng), "policy.w_v")
        self.b_v = Parameter(np.zeros(1), "policy.b_v")
        # all parameters packed into one contiguous vector; value/grad
        # arrays become views, so flat weight exchange is copy-free
        self.flat = FlatParameterVector(self.parameters())
        self._dtype = self.w_pi.value.dtype
        # per-step mask, built once
        self._mask = np.full((self.horizon, self.max_dim), _NEG,
                             dtype=self._dtype)
        for t, d in enumerate(self.action_dims):
            self._mask[t, :d] = 0.0
        # fused sequence driver + stacked [w_pi | w_v] head, refreshed
        # per pass (the parameter arrays are flat-pack views)
        self._fused = FusedLSTM(self.lstm)
        self._head_w: np.ndarray | None = None
        self._head_b: np.ndarray | None = None
        self._dhv: dict[tuple, np.ndarray] = {}
        # full-sequence tensors of the latest forward_train pass, used
        # by backward_train (which must follow its forward anyway: the
        # recurrent state lives in the fused pass buffers)
        self._seq: dict[str, np.ndarray] | None = None

    # -- parameter plumbing -------------------------------------------
    def parameters(self) -> list[Parameter]:
        return [self.embedding, *self.lstm.parameters(),
                self.w_pi, self.b_pi, self.w_v, self.b_v]

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        self.flat.zero_grad()

    def get_flat(self) -> np.ndarray:
        """All parameters as one vector (for parameter-server exchange).

        Returns a snapshot copy: callers diff it against later states
        (e.g. ``after - before`` update deltas), so it must not alias the
        live parameter pack.
        """
        return self.flat.copy_values()

    def set_flat(self, vec: np.ndarray) -> None:
        self.flat.set_values(vec)

    def add_flat(self, delta: np.ndarray) -> None:
        self.flat.add_values(delta)

    # -- forward passes -------------------------------------------------
    def _begin_pass(self, batch: int) -> None:
        """Bind fused buffers and refresh the stacked weight copies."""
        self._fused.begin(self.horizon, batch)
        a = self.max_dim
        if self._head_w is None:
            self._head_w = np.empty((self.hidden, a + 1), dtype=self._dtype)
            self._head_b = np.empty(a + 1, dtype=self._dtype)
        np.copyto(self._head_w[:, :a], self.w_pi.value)
        self._head_w[:, a] = self.w_v.value[:, 0]
        self._head_b[:a] = self.b_pi.value
        self._head_b[a] = self.b_v.value[0]

    def _fused_step(self, t: int, tokens: np.ndarray):
        """One fused controller step: embedding gather, stacked gate
        GEMM, stacked head GEMM, masked log-softmax.  The single code
        path shared by ``sample`` and ``forward_train`` — their
        per-step numbers are bit-identical by construction."""
        x = self.embedding.value[tokens]
        h = self._fused.step(t, x)
        hv = h @ self._head_w + self._head_b
        logits = hv[:, :self.max_dim] + self._mask[t]
        z = logits - logits.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(z).sum(axis=-1, keepdims=True))
        logp_full = z - logz
        probs = np.exp(logp_full)
        value = hv[:, self.max_dim]
        return h, logp_full, probs, value

    def sample(self, batch: int, rng: np.random.Generator) -> Rollout:
        """Draw ``batch`` architectures from the current policy."""
        self._begin_pass(batch)
        tokens = np.zeros(batch, dtype=np.intp)
        actions = np.zeros((batch, self.horizon), dtype=np.intp)
        logprobs = np.zeros((batch, self.horizon))
        values = np.zeros((batch, self.horizon))
        for t in range(self.horizon):
            _, logp_full, probs, value = self._fused_step(t, tokens)
            u = rng.random((batch, 1))
            acts = (probs.cumsum(axis=-1) < u).sum(axis=-1)
            acts = np.minimum(acts, self.action_dims[t] - 1)
            actions[:, t] = acts
            logprobs[:, t] = logp_full[np.arange(batch), acts]
            values[:, t] = value
            tokens = acts + 1
        return Rollout(actions, logprobs, values)

    def forward_train(self, actions: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recompute (logprobs, values, entropies) for given actions,
        keeping everything ``backward_train`` needs.

        Unlike ``sample``, the whole input sequence is known upfront, so
        only the recurrent carry runs step by step — the embedding
        gather, head GEMM, log-softmax, and entropy are computed for all
        ``T`` steps at once."""
        actions = np.asarray(actions, dtype=np.intp)
        batch, horizon = actions.shape
        if horizon != self.horizon:
            raise ValueError(f"expected horizon {self.horizon}, got {horizon}")
        self._begin_pass(batch)
        a = self.max_dim
        # token t is action t-1 shifted by one; token 0 is <start>
        tokens = np.zeros((horizon, batch), dtype=np.intp)
        tokens[1:] = actions[:, :-1].T + 1
        h_all = self._fused.forward(self.embedding.value[tokens])
        hv = (h_all.reshape(horizon * batch, self.hidden) @ self._head_w
              + self._head_b).reshape(horizon, batch, a + 1)
        logits = hv[:, :, :a] + self._mask[:, None, :]
        z = logits - logits.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(z).sum(axis=-1, keepdims=True))
        logp_full = z - logz                                # (T, B, A)
        probs = np.exp(logp_full)
        with np.errstate(invalid="ignore"):
            plogp = np.where(probs > 0, probs * logp_full, 0.0)
        ent = -plogp.sum(axis=-1)                           # (T, B)
        t_idx = np.arange(horizon)[:, None]
        b_idx = np.arange(batch)[None, :]
        acts = actions.T                                    # (T, B)
        logprobs = logp_full[t_idx, b_idx, acts].T.astype(np.float64)
        values = hv[:, :, a].T.astype(np.float64)
        entropies = ent.T.astype(np.float64)
        self._seq = {"tokens": tokens, "logp_full": logp_full,
                     "probs": probs, "entropy": ent, "actions": acts}
        return logprobs, values, entropies

    def backward_train(self, d_logp: np.ndarray, d_value: np.ndarray,
                       d_entropy: np.ndarray) -> None:
        """Accumulate parameter gradients for a scalar objective with the
        given ``(B, T)`` partials w.r.t. per-step logprob/value/entropy.

        Must follow the ``forward_train`` pass it differentiates (the
        recurrent state lives in the fused driver's pass buffers, the
        head statistics in ``self._seq``).
        """
        dt = self._dtype
        d_logp = np.asarray(d_logp, dtype=dt)
        d_value = np.asarray(d_value, dtype=dt)
        d_entropy = np.asarray(d_entropy, dtype=dt)
        batch, horizon = d_logp.shape
        a = self.max_dim
        seq = self._seq
        probs, logp_full = seq["probs"], seq["logp_full"]
        entropy, acts = seq["entropy"], seq["actions"]
        key = (horizon, batch)
        dhv = self._dhv.get(key)
        if dhv is None:
            # per-step head gradients [dlogits | dvalue], accumulated so
            # the head weight gradient is one whole-sequence GEMM
            dhv = self._dhv[key] = np.empty((horizon, batch, a + 1),
                                            dtype=dt)
        # head gradients are step-independent given the forward pass, so
        # compute them for all T steps at once: d logp_a / dlogits_j =
        # 1[j=a] - p_j, dH/dlogits_j = -p_j (log p_j + H)
        dl = d_logp.T[:, :, None]                           # (T, B, 1)
        dlogits = dhv[:, :, :a]
        np.multiply(probs, -dl, out=dlogits)
        t_idx = np.arange(horizon)[:, None]
        b_idx = np.arange(batch)[None, :]
        dlogits[t_idx, b_idx, acts] += d_logp.T
        with np.errstate(invalid="ignore"):
            ent_term = np.where(
                probs > 0, -probs * (logp_full + entropy[:, :, None]), 0.0)
        dlogits += d_entropy.T[:, :, None] * ent_term
        dhv[:, :, a] = d_value.T
        # one GEMM for every step's head contribution to dh; the time
        # loop only carries the recurrent state backwards
        dh_head = (dhv.reshape(horizon * batch, a + 1) @ self._head_w.T
                   ).reshape(horizon, batch, self.hidden)
        dc_next = np.zeros((batch, self.hidden), dtype=dt)
        dh_next = None
        for t in reversed(range(horizon)):
            dh = dh_head[t]
            if dh_next is not None:
                dh += dh_next
            dh_next, dc_next = self._fused.backward_step(t, dh, dc_next)
        self._fused.backward_finish()
        dx = self._fused.input_grads()                      # (T, B, E)
        np.add.at(self.embedding.grad, seq["tokens"].ravel(),
                  dx.reshape(horizon * batch, -1))
        h2 = self._fused.hidden_states.reshape(horizon * batch, self.hidden)
        dhv2 = dhv.reshape(horizon * batch, a + 1)
        ghead = h2.T @ dhv2
        self.w_pi.grad += ghead[:, :a]
        self.w_v.grad += ghead[:, a:]
        dsum = dhv2.sum(axis=0)
        self.b_pi.grad += dsum[:a]
        self.b_v.grad += dsum[a:]
