"""Exchange strategies: how agents share policy updates (§3.2).

The paper runs three modes — A3C (asynchronous average of recent
updates through a parameter server), A2C (synchronous barrier average),
and RDM (no learning, no exchange).  Each mode is one
:class:`ExchangeStrategy` class with a narrow contract:

* ``on_gradient(agent_id, delta, iteration)`` — a *generator* the agent
  loop delegates to with ``yield from``; it performs the exchange
  (possibly waiting on simulator events) and returns the averaged
  update the agent should apply in place of its local delta;
* ``on_round_end(agent_id, iteration)`` — called after the agent has
  applied the average, closing the agent's view of the round;
* ``leave`` / ``rejoin`` — lifecycle around agent death/resurrection;
* ``export_state`` / ``restore_state`` — checkpoint plumbing for the
  underlying server.

New modes (local-SGD, elastic averaging, ...) are one new class plus a
pairing row in :data:`repro.search.methods.SEARCH_METHODS`; the agent
loop and runner consult that registry, so there is no ``if mode ==``
arm left to extend.
"""

from __future__ import annotations

import numpy as np

from ..events import BARRIER, PUSH, EventSink, emit
from ..health.recovery import DeltaSanitizer
from ..hpc.sim import Simulator
from ..rl.parameter_server import ParameterServer

__all__ = ["ExchangeStrategy", "A3CExchange", "A2CExchange", "RandomExchange"]


class ExchangeStrategy:
    """Base contract between the agent loop and the exchange substrate.

    ``ps`` is the underlying parameter server, or ``None`` for modes
    with no exchange at all; the runner still exposes it as
    ``search.ps`` for ablations and the chaos harness.
    """

    name = "?"

    def __init__(self, ps: ParameterServer | None,
                 sink: EventSink | None = None) -> None:
        self.ps = ps
        self.sink = sink

    @classmethod
    def build(cls, sim: Simulator, config, space,
              sink: EventSink | None = None) -> "ExchangeStrategy":
        """Construct the strategy (and its server) from a SearchConfig."""
        raise NotImplementedError

    # -- the exchange itself ------------------------------------------
    def on_gradient(self, agent_id: int, delta: np.ndarray,
                    iteration: int):
        """Exchange ``delta``; a generator returning the average to apply."""
        raise NotImplementedError
        yield   # pragma: no cover — marks this as a generator function

    def on_round_end(self, agent_id: int, iteration: int) -> None:
        """Called after the agent applied the exchanged average."""

    # -- agent lifecycle ----------------------------------------------
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

    # -- checkpoint plumbing ------------------------------------------
    def export_state(self) -> dict | None:
        return None if self.ps is None else self.ps.export_state()

    def restore_state(self, state: dict | None) -> None:
        if state is not None and self.ps is not None:
            self.ps.restore_state(state)

    # -- shared construction helpers ----------------------------------
    @staticmethod
    def _sanitizer(config) -> DeltaSanitizer | None:
        """Ingress hygiene for the server (guard-driven)."""
        guard = config.guard
        if guard is not None and guard.enabled:
            return DeltaSanitizer()
        return None


class A3CExchange(ExchangeStrategy):
    """Asynchronous exchange: push, receive the rolling average of
    recent updates, never wait for other agents.  With a modelled
    service time the push itself takes simulated time; otherwise it is
    instantaneous.

    ``ps_shards = k`` builds one server with service time
    ``ps_service_time / k``: k shards of the vector would receive the
    same push stream, so their queues and staleness windows would move
    in lockstep with that one faster server's.
    """

    name = "a3c"

    @classmethod
    def build(cls, sim, config, space, sink=None):
        ps = ParameterServer(
            sim, config.allocation.num_agents, mode="async",
            staleness_window=config.staleness_window,
            service_time=config.ps_service_time / config.ps_shards,
            sanitizer=cls._sanitizer(config))
        return cls(ps, sink=sink)

    def on_gradient(self, agent_id, delta, iteration):
        emit(self.sink, PUSH, self.ps.sim.now, agent_id, iteration,
             mode=self.name)
        if self.ps.service_time > 0.0:
            avg = yield self.ps.push_async_timed(delta)
        else:
            avg = self.ps.push_async(delta)
        return avg


class A2CExchange(ExchangeStrategy):
    """Synchronous exchange: all live agents meet at a barrier; the
    round's deltas are averaged and returned to everyone at once."""

    name = "a2c"

    @classmethod
    def build(cls, sim, config, space, sink=None):
        ps = ParameterServer(sim, config.allocation.num_agents, mode="sync",
                             staleness_window=config.staleness_window,
                             sanitizer=cls._sanitizer(config))
        return cls(ps, sink=sink)

    def on_gradient(self, agent_id, delta, iteration):
        emit(self.sink, PUSH, self.ps.sim.now, agent_id, iteration,
             mode=self.name)
        avg = yield self.ps.push_sync(delta, agent_id)
        return avg

    def on_round_end(self, agent_id, iteration):
        emit(self.sink, BARRIER, self.ps.sim.now, agent_id, iteration,
             round=self.ps.num_rounds)


class RandomExchange(ExchangeStrategy):
    """RDM baseline: no policy, no updates, no server.  The seam is
    still present so the agent loop stays method-agnostic."""

    name = "rdm"

    @classmethod
    def build(cls, sim, config, space, sink=None):
        return cls(None, sink=sink)

    def on_gradient(self, agent_id, delta, iteration):
        return None
        yield   # pragma: no cover — never driven (RDM computes no delta)
