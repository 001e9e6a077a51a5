"""The proposer seam: how the next batch of architectures is chosen.

The agent loop (:mod:`repro.search.loop`) runs one cycle — propose,
evaluate, observe — and delegates the first and last step to a
:class:`Proposer`.  Proposal (which architectures to try next) is a
different concern from parameter *exchange* (how RL agents share policy
updates, :mod:`repro.search.exchange`): the RL methods pair a
:class:`PolicyProposer` with their a3c/a2c exchange, while non-RL
methods (random, AMBS, evolution) ride a no-op exchange and keep all
their intelligence on this seam.

One proposer instance is shared by every agent of a search (built by
the runner next to the exchange).  The contract:

* ``propose(loop, seen=None)`` — return the next ``(batch, T)`` action
  matrix for ``loop``'s agent, drawing randomness only from
  ``loop.rng`` so trajectories stay seed-deterministic and boundary
  resume re-proposes the in-flight batch exactly;
* ``observe(loop, actions, rewards)`` — a *generator* the loop drives
  with ``yield from`` after the batch evaluated; RL methods run their
  PPO update and exchange round here (possibly waiting on simulator
  events), history methods fold the observations into shared state;
* ``seen()`` — the shared-history watermark at this instant (``None``
  for methods whose proposals depend only on per-agent state), captured
  into each iteration boundary so a resumed agent re-proposes from
  exactly the history prefix it originally saw;
* ``rebuild(records)`` — checkpoint plumbing.  History proposers
  derive their entire state from the reward-record stream, so resume
  rebuilds it from the checkpoint's (boundary-trimmed) records instead
  of serializing a second copy.

Registering a new method is one :class:`Proposer` subclass plus one
:class:`~repro.search.methods.SearchMethod` row in
:data:`~repro.search.methods.SEARCH_METHODS`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Proposer", "RandomProposer", "PolicyProposer",
           "HistoryProposer", "mutate_choices"]


def mutate_choices(space, choices, rng: np.random.Generator) -> tuple:
    """Change one decision of ``choices`` to a different uniformly
    drawn option (the aging-evolution mutation, Real et al. 2018);
    shared by the evolution proposer and the AMBS candidate generator.
    """
    nodes = space.variable_nodes
    out = list(choices)
    mutable = [i for i, n in enumerate(nodes) if n.num_ops > 1]
    if not mutable:
        return tuple(out)
    i = mutable[rng.integers(len(mutable))]
    new = int(rng.integers(nodes[i].num_ops - 1))
    if new >= out[i]:
        new += 1    # skip the current value
    out[i] = new
    return tuple(out)


class Proposer:
    """Base contract between the agent loop and architecture proposal."""

    name = "?"

    @classmethod
    def build(cls, config, space, exchange) -> "Proposer":
        """Construct the search's shared proposer instance."""
        raise NotImplementedError

    # -- the seam itself ----------------------------------------------
    def propose(self, loop, seen: int | None = None) -> np.ndarray:
        """The next ``(batch, T)`` action matrix for ``loop``'s agent."""
        raise NotImplementedError

    def observe(self, loop, actions: np.ndarray, rewards: np.ndarray):
        """Digest the evaluated batch; a generator (``yield from``)."""
        raise NotImplementedError
        yield   # pragma: no cover — marks this as a generator function

    # -- checkpoint plumbing ------------------------------------------
    def seen(self) -> int | None:
        """Shared-history watermark for boundary capture (None =
        proposals depend only on per-agent state, nothing to pin)."""
        return None

    def rebuild(self, records) -> None:
        """Re-fold shared state from the (trimmed) reward records a
        checkpoint restore or resurrection kept."""


class RandomProposer(Proposer):
    """RDM baseline: uniform random action rows, no observation state.

    Consumes exactly one vectorized ``rng.integers`` draw per batch —
    the pre-seam RDM sampling, bit for bit.
    """

    name = "rdm"

    def __init__(self, space) -> None:
        self.dims = np.array(space.action_dims)

    @classmethod
    def build(cls, config, space, exchange):
        return cls(space)

    def propose(self, loop, seen=None):
        return loop.rng.integers(0, self.dims,
                                 size=(loop.batch, len(self.dims)))

    def observe(self, loop, actions, rewards):
        return
        yield   # pragma: no cover — RDM never learns


class PolicyProposer(Proposer):
    """RL proposal: sample the agent's LSTM policy, learn via PPO, and
    run the configured exchange round.

    ``observe`` is the pre-seam ``_learn`` body: the hook transform
    after ``update_delta``, the exchange round (a3c push / a2c barrier —
    the only part that may wait on simulator events), and the average
    applied in place of the local delta.
    """

    name = "policy"

    def __init__(self, exchange) -> None:
        self.exchange = exchange
        #: in-flight rollout per agent between propose and observe
        self._rollouts: dict[int, object] = {}

    @classmethod
    def build(cls, config, space, exchange):
        return cls(exchange)

    def propose(self, loop, seen=None):
        rollout = loop.policy.sample(loop.batch, loop.rng)
        self._rollouts[loop.agent_id] = rollout
        return rollout.actions

    def observe(self, loop, actions, rewards):
        rollout = self._rollouts.pop(loop.agent_id)
        delta, stats = loop.updater.update_delta(rollout, rewards)
        delta, push_delta = loop.hooks.after_update(loop, delta, delta,
                                                    stats)
        avg = yield from self.exchange.on_gradient(loop.agent_id,
                                                   push_delta,
                                                   loop.iteration)
        # update_delta already applied the local delta; replace it with
        # the exchange's average
        loop.policy.add_flat(avg - delta)
        self.exchange.on_round_end(loop.agent_id, loop.iteration)


class HistoryProposer(Proposer):
    """Shared-history base for AMBS and evolution.

    All state is one append-only observation list fed in global
    reward-record order (each agent observes its own batch in the same
    callback that appends its records, so the two streams are
    identical).  That makes resume exact with no new checkpoint
    payload: ``rebuild`` re-folds the checkpoint's kept records, and
    the per-boundary ``proposer_seen`` watermark re-proposes each
    agent's in-flight batch from the history prefix it originally saw.
    """

    def __init__(self, space) -> None:
        self.space = space
        self.dims = np.array(space.action_dims)
        #: (choices tuple, reward) in global observation order
        self._obs: list[tuple[tuple, float]] = []

    def observe(self, loop, actions, rewards):
        for row, reward in zip(actions, rewards):
            self._obs.append((tuple(int(c) for c in row), float(reward)))
        return
        yield   # pragma: no cover — history folding never waits

    def seen(self) -> int:
        return len(self._obs)

    def rebuild(self, records) -> None:
        self._obs = [(tuple(int(c) for c in rec.arch.choices),
                      float(rec.reward)) for rec in records]

    def history(self, seen: int | None) -> list[tuple[tuple, float]]:
        """The observation prefix a proposal may read: everything on a
        live iteration, the boundary watermark on a resumed one."""
        return self._obs if seen is None else self._obs[:seen]
