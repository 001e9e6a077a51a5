"""The proposer seam: how the next batch of architectures is chosen,
and how the RL agents share what they learned from it.

The agent loop (:mod:`repro.search.loop`) runs one cycle — propose,
evaluate, observe — and delegates the first and last step to a
:class:`Proposer`.  A search method *is* its proposer.  The paper's RL
modes are :class:`PolicyProposer` subclasses: they sample the agent's
LSTM policy, learn by PPO, and end each ``observe`` with the
parameter-server exchange of §3.2 — :class:`A3CProposer` pushes
asynchronously, :class:`A2CProposer` meets the other agents at a
barrier.  The non-RL methods (random, AMBS, evolution) own no server
and keep all their intelligence in ``propose``.

One proposer instance is shared by every agent of a search (built by
the runner through :func:`~repro.search.methods.build_proposer`).  The
contract:

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
  of serializing a second copy;
* ``leave`` / ``rejoin`` / ``export_state`` / ``restore_state`` — the
  agent lifecycle and checkpoint plumbing of the parameter server
  ``ps``; no-ops for proposers that own none.

Registering a new method is one :class:`Proposer` subclass plus one
:class:`~repro.search.methods.SearchMethod` row in
:data:`~repro.search.methods.SEARCH_METHODS`.
"""

from __future__ import annotations

import numpy as np

from ..events import BARRIER, PUSH, EventSink, emit
from ..health.recovery import DeltaSanitizer
from ..rl.parameter_server import ParameterServer

__all__ = ["Proposer", "RandomProposer", "PolicyProposer", "A3CProposer",
           "A2CProposer", "HistoryProposer", "mutate_choices"]


def mutate_choices(dims, parents, rng: np.random.Generator) -> np.ndarray:
    """Change one decision of each ``(k, T)`` parent row to another
    uniformly drawn option (aging-evolution mutation, Real et al. 2018;
    ``dims`` holds the option counts), for evolution and AMBS.  Each row
    draws a mutable decision, then one of its other options; when those
    share one count, one broadcast call makes the same draws in order.
    """
    out = np.array(parents, dtype=np.int64)
    mutable = (np.asarray(dims) > 1).nonzero()[0]
    if not len(mutable):
        return out
    options = np.asarray(dims)[mutable]
    if (options == options[0]).all():
        draws = rng.integers(0, [len(mutable), options[0] - 1],
                             size=(len(out), 2))
    else:
        draws = np.empty((len(out), 2), dtype=np.int64)
        for r in range(len(out)):
            draws[r, 0] = t = rng.integers(len(mutable))
            draws[r, 1] = rng.integers(options[t] - 1)
    rows, cols, new = np.arange(len(out)), mutable[draws[:, 0]], draws[:, 1]
    out[rows, cols] = new + (new >= out[rows, cols])   # skip the current value
    return out


class Proposer:
    """Base contract between the agent loop and architecture proposal."""

    name = "?"
    #: whether the runner builds per-agent LSTM policies + PPO updaters
    learns = False
    #: the parameter server agents exchange policy updates through
    #: (None: the method exchanges nothing)
    ps: ParameterServer | None = None

    @classmethod
    def build(cls, config, space, sim, sink: EventSink | None = None
              ) -> "Proposer":
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

    # -- agent lifecycle around the exchange --------------------------
    def leave(self, failed: bool = False) -> None:
        """An agent left the exchange (converged, crashed, or dying for
        resurrection); a sync barrier shrinks instead of deadlocking."""
        if self.ps is not None:
            self.ps.deregister(failed=failed)

    def rejoin(self, agent_id: int) -> None:
        """A resurrected agent re-enters the exchange; any stale push
        its dead lifetime left in the current round is withdrawn."""
        if self.ps is not None:
            self.ps.register(agent_id)

    def export_state(self) -> dict | None:
        """The server's checkpoint state (None without a server)."""
        return None if self.ps is None else self.ps.export_state()

    def restore_state(self, state: dict | None) -> None:
        if state is not None and self.ps is not None:
            self.ps.restore_state(state)


class RandomProposer(Proposer):
    """RDM baseline: uniform random action rows, no observation state.

    Consumes exactly one vectorized ``rng.integers`` draw per batch —
    the pre-seam RDM sampling, bit for bit.
    """

    name = "rdm"

    def __init__(self, space) -> None:
        self.dims = np.array(space.action_dims)

    @classmethod
    def build(cls, config, space, sim, sink=None):
        return cls(space)

    def propose(self, loop, seen=None):
        return loop.rng.integers(0, self.dims,
                                 size=(loop.batch, len(self.dims)))

    def observe(self, loop, actions, rewards):
        return
        yield   # pragma: no cover — RDM never learns


class PolicyProposer(Proposer):
    """RL proposal: sample the agent's LSTM policy, learn via PPO, and
    exchange the update through the parameter server the proposer owns.

    ``observe`` runs the hook transform after ``update_delta``, the
    exchange round — the only part that may wait on simulator events —
    and applies the round's average in place of the local delta.  A
    subclass names the server mode and supplies ``push`` (and, if the
    round needs closing, ``round_end``).
    """

    learns = True
    #: :class:`~repro.rl.parameter_server.ParameterServer` mode
    ps_mode = "?"

    def __init__(self, ps: ParameterServer,
                 sink: EventSink | None = None) -> None:
        self.ps = ps
        self.sink = sink
        #: in-flight rollout per agent between propose and observe
        self._rollouts: dict[int, object] = {}

    @classmethod
    def build(cls, config, space, sim, sink=None):
        guard = config.guard
        # ingress hygiene for the server (guard-driven)
        sanitizer = (DeltaSanitizer()
                     if guard is not None and guard.enabled else None)
        return cls(ParameterServer(
            sim, config.allocation.num_agents, mode=cls.ps_mode,
            staleness_window=config.staleness_window,
            service_time=config.ps_service_time, sanitizer=sanitizer),
            sink=sink)

    def propose(self, loop, seen=None):
        rollout = loop.policy.sample(loop.batch, loop.rng)
        self._rollouts[loop.agent_id] = rollout
        return rollout.actions

    def observe(self, loop, actions, rewards):
        rollout = self._rollouts.pop(loop.agent_id)
        delta, stats = loop.updater.update_delta(rollout, rewards)
        delta, push_delta = loop.hooks.after_update(loop, delta, delta,
                                                    stats)
        emit(self.sink, PUSH, self.ps.sim.now, loop.agent_id,
             loop.iteration, mode=self.name)
        avg = yield from self.push(loop, push_delta)
        # update_delta already applied the local delta; replace it with
        # the exchange's average
        loop.policy.add_flat(avg - delta)
        self.round_end(loop)

    def push(self, loop, delta):
        """Hand ``delta`` to the server; a generator returning the
        average to apply."""
        raise NotImplementedError
        yield   # pragma: no cover — marks this as a generator function

    def round_end(self, loop) -> None:
        """Called after the agent applied the exchanged average."""


class A3CProposer(PolicyProposer):
    """Asynchronous exchange: push, receive the rolling average of
    recent updates, never wait for other agents.  With a modelled
    service time (``ps_service_time > 0``) the push itself takes
    simulated time; otherwise it is instantaneous.

    The §7 "multiparameter servers" need no setting of their own: k
    shards of the vector would receive the same push stream, so their
    queues and staleness windows would move in lockstep with one server
    k times as fast — k shards of a server with service time s are
    ``ps_service_time = s / k``.
    """

    name = "a3c"
    ps_mode = "async"

    def push(self, loop, delta):
        if self.ps.service_time > 0.0:
            return (yield from self.ps.push_async_timed(delta))
        return self.ps.push_async(delta)


class A2CProposer(PolicyProposer):
    """Synchronous exchange: all live agents meet at a barrier; the
    round's deltas are averaged and returned to everyone at once.  The
    round takes no service time (``ps_service_time`` times A3C pushes
    only)."""

    name = "a2c"
    ps_mode = "sync"

    def push(self, loop, delta):
        return (yield self.ps.push_sync(delta, loop.agent_id))

    def round_end(self, loop):
        emit(self.sink, BARRIER, self.ps.sim.now, loop.agent_id,
             loop.iteration, round=self.ps.num_rounds)


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
