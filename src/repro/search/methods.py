"""The search-method registry: one proposer per method.

A *method* is what ``SearchConfig.method`` names, and it is one
:class:`~repro.search.proposer.Proposer` class: how the next batch is
chosen and, for the paper's RL modes, how agents share policy updates.
A3C and A2C are the policy proposer with its asynchronous or
barrier-synchronized parameter server; the non-RL methods own no
server and keep all their logic in ``propose``.

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
from .proposer import A2CProposer, A3CProposer, Proposer, RandomProposer

__all__ = ["SearchMethod", "SEARCH_METHODS", "build_proposer"]


@dataclass(frozen=True)
class SearchMethod:
    """One registered method: its name, proposer and summary."""

    name: str
    proposer: type[Proposer]
    #: one-line description for ``repro search --list-methods``
    summary: str


SEARCH_METHODS: dict[str, SearchMethod] = {m.name: m for m in (
    SearchMethod("a3c", A3CProposer,
                 "asynchronous RL: LSTM policy + PPO, rolling-average "
                 "parameter server (the paper's main mode)"),
    SearchMethod("a2c", A2CProposer,
                 "synchronous RL: LSTM policy + PPO, barrier-averaged "
                 "updates each round"),
    SearchMethod("rdm", RandomProposer,
                 "uniform random search baseline (no learning)"),
    SearchMethod("ambs", AmbsProposer,
                 "asynchronous model-based search: ridge-ensemble "
                 "surrogate, UCB acquisition, constant-liar batching"),
    SearchMethod("evolution", EvolutionProposer,
                 "aging (regularized) evolution with tournament "
                 "selection over a sliding population"),
)}


def build_proposer(sim: Simulator, config, space,
                   sink: EventSink | None = None) -> Proposer:
    """Instantiate the configured method's shared proposer (and, for
    the RL methods, its parameter server)."""
    return SEARCH_METHODS[config.method].proposer.build(config, space, sim,
                                                        sink=sink)
