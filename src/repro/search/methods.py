"""The search-method registry: proposer × exchange pairings.

A *method* is what ``SearchConfig.method`` names: a
:class:`~repro.search.proposer.Proposer` (how the next batch is chosen)
paired with an :class:`~repro.search.exchange.ExchangeStrategy` (how RL
agents share policy updates).  The paper's three modes pair the policy
proposer with their exchange; the non-RL methods keep all their logic
on the proposer seam and ride the no-op
:class:`~repro.search.exchange.RandomExchange`.

Everything method-specific in the runtime consults this table — config
validation, the runner's composition root, CLI ``--method`` choices,
``repro search --list-methods``, and the bench comparison — so
registering a new method is one proposer class plus one
:class:`SearchMethod` row here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..events import EventSink
from ..hpc.sim import Simulator
from .ambs import AmbsProposer
from .evolution import EvolutionProposer
from .exchange import (A2CExchange, A3CExchange, ExchangeStrategy,
                       RandomExchange)
from .proposer import PolicyProposer, Proposer, RandomProposer

__all__ = ["SearchMethod", "SEARCH_METHODS", "build_exchange",
           "build_proposer"]


@dataclass(frozen=True)
class SearchMethod:
    """One registered pairing of proposer and exchange."""

    name: str
    proposer: type[Proposer]
    exchange: type[ExchangeStrategy]
    #: whether the runner builds per-agent LSTM policies + PPO updaters
    learns: bool
    #: one-line description for ``repro search --list-methods``
    summary: str


SEARCH_METHODS: dict[str, SearchMethod] = {m.name: m for m in (
    SearchMethod("a3c", PolicyProposer, A3CExchange, True,
                 "asynchronous RL: LSTM policy + PPO, rolling-average "
                 "parameter server (the paper's main mode)"),
    SearchMethod("a2c", PolicyProposer, A2CExchange, True,
                 "synchronous RL: LSTM policy + PPO, barrier-averaged "
                 "updates each round"),
    SearchMethod("rdm", RandomProposer, RandomExchange, False,
                 "uniform random search baseline (no learning)"),
    SearchMethod("ambs", AmbsProposer, RandomExchange, False,
                 "asynchronous model-based search: ridge-ensemble "
                 "surrogate, UCB acquisition, constant-liar batching"),
    SearchMethod("evolution", EvolutionProposer, RandomExchange, False,
                 "aging (regularized) evolution with tournament "
                 "selection over a sliding population"),
)}


def build_exchange(sim: Simulator, config, space,
                   sink: EventSink | None = None) -> ExchangeStrategy:
    """Instantiate the configured method's exchange (and its server)."""
    return SEARCH_METHODS[config.method].exchange.build(sim, config, space,
                                                        sink=sink)


def build_proposer(config, space, exchange) -> Proposer:
    """Instantiate the configured method's shared proposer."""
    return SEARCH_METHODS[config.method].proposer.build(config, space,
                                                        exchange)
