"""Asynchronous model-based search (AMBS) on the proposer seam.

DeepHyper-style surrogate search: fit a cheap model on every
(architecture, reward) pair observed so far, score a candidate pool
with an optimistic acquisition, and propose the best candidates.  The
pieces:

* **Encoding** — each action row becomes a one-hot vector per decision
  plus an intercept column, so the surrogate is linear in option
  *membership* rather than in the (meaningless) integer option index.
* **Surrogate** — a bootstrap ensemble of ridge regressions.  Each
  member solves ``(XᵀX + λI) w = Xᵀy`` on a resampled subset; the
  ensemble spread is the uncertainty estimate.  Closed-form ``solve``
  keeps fits deterministic and dependency-free.
* **Acquisition** — upper confidence bound on reward,
  ``mean + kappa·std`` (equivalently LCB on the negated objective, the
  DeepHyper convention); maximized over a candidate pool of uniform
  rows mixed with mutations of the best architectures seen.
* **Constant liar** — a batch is proposed slot by slot: after each
  pick, a "lie" reward (the lowest observed reward) is appended to the
  fit set so the remaining slots spread out instead of proposing the
  same argmax B times.

The proposer reads only the shared observation history (through the
boundary watermark on resume) and ``loop.rng``, so same-seed runs and
checkpoint resumes are bit-identical like every other method.
"""

from __future__ import annotations

import numpy as np

from .proposer import HistoryProposer, mutate_choices

__all__ = ["AmbsProposer", "encode_rows", "RidgeEnsemble"]

#: cap on how much history one fit consumes (keeps per-iteration fit
#: cost flat on long runs; the newest observations matter most)
_FIT_WINDOW = 2048
#: ridge regularizer — small enough not to bias, large enough that the
#: normal equations stay well-conditioned on tiny warm-up fit sets
_RIDGE_LAMBDA = 1e-2
#: observations required before the surrogate takes over from random
#: proposals
_WARMUP = 10
#: acquisition candidate-pool size per batch slot (a quarter of it
#: mutations of the best architectures seen)
_CANDIDATES = 128
#: UCB exploration weight (mean + kappa * std); 1.0 calibrates to the
#: bootstrap ridge ensemble's spread, which runs wide on small fit sets
#: (1.96 over-explores)
_KAPPA = 1.0
#: bootstrap ridge-ensemble members
_ENSEMBLE = 8


def encode_rows(rows: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """One-hot encode integer action rows, plus an intercept column.

    ``rows`` is ``(N, T)`` with ``rows[:, t] < dims[t]``; the result is
    ``(N, sum(dims) + 1)`` float64.
    """
    rows = np.asarray(rows, dtype=np.int64)
    dims = np.asarray(dims)
    n = rows.shape[0]
    out = np.zeros((n, int(np.sum(dims)) + 1), dtype=np.float64)
    # decision t's options follow the columns of decisions 0..t-1
    out[np.arange(n)[:, None], np.cumsum(dims) - dims + rows] = 1.0
    out[:, -1] = 1.0
    return out


class RidgeEnsemble:
    """Bootstrap ensemble of closed-form ridge regressions."""

    def __init__(self, members: int) -> None:
        self.members = members
        self._weights: np.ndarray | None = None   # (members, D)

    def fit(self, x: np.ndarray, y: np.ndarray,
            rng: np.random.Generator) -> None:
        """One stacked solve, bit for bit the member-by-member one: a
        draw below 2³² takes one 32-bit word however calls are split,
        one-hot Gram entries are integer counts (exact in any order),
        each right-hand side is the same ``xm.T @ ym``, and ``solve`` runs
        the same ``gesv`` per member.  Members are gathered one by one."""
        n, d = x.shape
        idx = rng.integers(0, n, size=(self.members, n))
        gram = np.empty((self.members, d, d))
        rhs = np.empty((self.members, d, 1))
        for m in range(self.members):
            xm = x.take(idx[m], axis=0)
            np.matmul(xm.T, xm, out=gram[m])
            rhs[m, :, 0] = xm.T @ y.take(idx[m])
        gram += _RIDGE_LAMBDA * np.eye(d)
        self._weights = np.linalg.solve(gram, rhs)[:, :, 0]

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ensemble ``(mean, std)`` over the candidate matrix."""
        preds = x @ self._weights.T            # (N, members)
        return preds.mean(axis=1), preds.std(axis=1)


class AmbsProposer(HistoryProposer):
    """Surrogate-guided proposal with constant-liar batching."""

    name = "ambs"

    @classmethod
    def build(cls, config, space, sim, sink=None):
        return cls(space)

    def propose(self, loop, seen=None):
        obs = self.history(seen)[-_FIT_WINDOW:]
        if len(obs) < _WARMUP:
            return loop.rng.integers(0, self.dims,
                                     size=(loop.batch, len(self.dims)))
        # the history is encoded once; slot m fits on rows [:m], then
        # writes its pick, the pick's encoding and the lie to row m
        n = len(obs)
        rows = np.zeros((n + loop.batch, len(self.dims)), dtype=np.int64)
        rows[:n] = [c for c, _ in obs]
        x = encode_rows(rows, self.dims)
        rewards = np.empty(n + loop.batch)
        # failed evals report NaN reward; score them as worst-case so
        # the surrogate steers away instead of poisoning the fit
        rewards[:n] = np.nan_to_num(np.array([r for _, r in obs]), nan=-1.0)
        rewards[n:] = np.min(rewards[:n])
        for m in range(n, n + loop.batch):
            rows[m], x[m] = self._propose_one(loop.rng, rows[:m], x[:m],
                                              rewards[:m])
        return rows[n:].copy()

    def _propose_one(self, rng, rows, x, rewards):
        """Fit on (x, rewards) and return the acquisition argmax's row
        and its encoding."""
        model = RidgeEnsemble(_ENSEMBLE)
        model.fit(x, rewards, rng)
        pool = self._candidate_pool(rng, rows, rewards)
        pool_x = encode_rows(pool, self.dims)
        mean, std = model.predict(pool_x)
        best = int(np.argmax(mean + _KAPPA * std))
        return pool[best], pool_x[best]

    def _candidate_pool(self, rng, rows, rewards):
        """¾ uniform exploration rows, ¼ mutations of the top archs."""
        n_mut = _CANDIDATES // 4
        pool = rng.integers(0, self.dims,
                            size=(_CANDIDATES - n_mut, len(self.dims)))
        top = np.argsort(rewards)[::-1][:n_mut]
        parents = rows[top[np.arange(n_mut) % len(top)]]
        return np.vstack([pool, mutate_choices(self.dims, parents, rng)])
