"""Regularized (aging) evolution on the proposer seam.

§7 lists "comparing our approach with extremely scalable evolutionary
approaches" as future work; :class:`EvolutionProposer` provides that
comparator *inside* the search runtime: asynchronous steady-state aging
evolution (Real et al., 2018) riding the same broker, event stream,
checkpoints, journal, and chaos coverage as every other method
(``SearchConfig(method="evolution")``).

The population is not separate state: it is a sliding window over the
shared observation history — the newest ``population_size``
architectures observed.  Appending a child and evicting the oldest
member (the aging regularization) is exactly advancing that window, so
checkpoint resume rebuilds the population from the kept records with no
extra payload.  Each proposal draws a tournament from the current
window (or a uniform random architecture while the population warms up)
and mutates one decision of the winner.
"""

from __future__ import annotations

import numpy as np

from .proposer import HistoryProposer, mutate_choices

__all__ = ["EvolutionProposer"]


class EvolutionProposer(HistoryProposer):
    """Aging evolution with tournament selection over the obs window."""

    name = "evolution"

    def __init__(self, space, *, population_size: int,
                 tournament_size: int) -> None:
        super().__init__(space)
        self.population_size = population_size
        self.tournament_size = tournament_size

    @classmethod
    def build(cls, config, space, exchange):
        return cls(space, population_size=config.population_size,
                   tournament_size=config.tournament_size)

    def population(self, seen: int | None = None):
        """The live population: the newest ``population_size`` observed
        (choices, reward) pairs — aging eviction is the window edge."""
        return self.history(seen)[-self.population_size:]

    def propose(self, loop, seen=None):
        pop = self.population(seen)
        picks = np.empty((loop.batch, len(self.dims)), dtype=np.int64)
        for slot in range(loop.batch):
            if len(pop) < self.population_size:
                picks[slot] = loop.rng.integers(0, self.dims,
                                                size=len(self.dims))
            else:
                parent = self._tournament(loop.rng, pop)
                picks[slot] = mutate_choices(self.space, parent, loop.rng)
        return picks

    def _tournament(self, rng, pop) -> tuple:
        """Best of ``tournament_size`` members drawn without replacement
        (NaN rewards from failed evals rank below everything)."""
        k = min(self.tournament_size, len(pop))
        idx = rng.choice(len(pop), size=k, replace=False)
        best = max(idx, key=lambda i: (-np.inf if np.isnan(pop[i][1])
                                       else pop[i][1]))
        return pop[best][0]
