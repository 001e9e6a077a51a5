"""Tabular reward model: O(1) lookups from a precomputed bench table.

NAS-Bench-201's core trick, applied to the repro spaces: once a space
has been swept into an :class:`~repro.bench.table.ArchTable`, a search
no longer trains anything — every reward estimation is a dictionary
read keyed by the architecture's isomorphism signature
(:class:`~repro.nas.plancache.SignatureResolver`), so structurally
identical action sequences hit the same row.

Properties the benchmark mode relies on:

* **referential transparency** — the same architecture maps to the same
  :class:`~repro.rewards.base.EvalResult` on every call, for every
  ``agent_seed``, in every process, over every evaluator backend.  That
  is what makes search-method comparisons exact: a3c / a2c / rdm /
  evolution replayed against one table see the *same* reward landscape,
  and a seeded search's determinism fingerprint is bit-identical no
  matter which backend serves the lookups;
* **configurable miss policy** — a lookup for a class the table does
  not hold either raises (``"error"``, the honest benchmark default),
  returns a fixed fallback reward (``"fallback"``), or surfaces the
  paper's ``FAILURE_REWARD`` (``"failure"``).  Invalid architectures
  (compile errors) are failures under every policy, matching
  :class:`~repro.rewards.training.TrainingReward`;
* **durations from the table** — the stored (real or modelled) duration
  is served back, so a virtual-time search over the simulated Balsam
  service behaves like the original sweep's cost landscape.
"""

from __future__ import annotations

from ..nas.arch import Architecture
from ..nas.plancache import SignatureResolver
from ..nas.space import Structure
from .base import EvalResult, RewardModel

__all__ = ["TableMiss", "TabularReward"]

_MISS_POLICIES = ("error", "fallback", "failure")


class TableMiss(KeyError):
    """An architecture's class is not in the table (miss policy
    ``"error"``)."""


class TabularReward(RewardModel):
    """Serves rewards from a loaded arch→metrics table.

    Parameters
    ----------
    table:
        A loaded :class:`~repro.bench.table.ArchTable`.
    resolver:
        The arch→signature resolver; must be built over the same space
        and compile context the table was swept with.
    miss:
        Lookup-miss policy: ``"error"`` | ``"fallback"`` | ``"failure"``.
    fallback_reward:
        Reward served on a miss under ``"fallback"``.
    """

    def __init__(self, table, resolver: SignatureResolver,
                 miss: str = "error",
                 fallback_reward: float = 0.0) -> None:
        if miss not in _MISS_POLICIES:
            raise ValueError(
                f"unknown miss policy {miss!r}; choose from "
                f"{_MISS_POLICIES}")
        if table.space_name != resolver.structure.name:
            raise ValueError(
                f"table is for space {table.space_name!r}, resolver for "
                f"{resolver.structure.name!r}")
        self.table = table
        self.resolver = resolver
        self.miss = miss
        self.fallback_reward = float(fallback_reward)

    @classmethod
    def from_table_dir(cls, directory, space: Structure,
                       input_shapes: dict, head_ops=None,
                       miss: str = "error",
                       fallback_reward: float = 0.0) -> "TabularReward":
        """Load a table directory and wire the resolver in one call."""
        from ..bench.table import ArchTable
        resolver = SignatureResolver(space, input_shapes, head_ops)
        return cls(ArchTable.load(directory), resolver, miss=miss,
                   fallback_reward=fallback_reward)

    # -- RewardModel API -----------------------------------------------
    def prefetch_plan(self, arch: Architecture) -> None:
        if self.plan_cache is None:
            return
        if self.resolver.plan_cache is None:
            # adopt the search's shared compile cache so gathers warm it
            self.resolver.plan_cache = self.plan_cache
        self.resolver.try_signature(arch)

    def evaluate(self, arch: Architecture,
                 agent_seed: int = 0) -> EvalResult:
        """Table lookup; ``agent_seed`` is deliberately ignored — the
        table is one fixed observer's ground truth."""
        sig = self.resolver.try_signature(arch)
        if sig is None:
            # invalid architecture: a failure under every policy, like
            # the training reward's compile-error path
            return EvalResult(self.FAILURE_REWARD, 0.0, 0)
        row = self.table.get(sig)
        if row is not None:
            return EvalResult(row.reward, row.duration, row.params,
                              row.timed_out)
        if self.miss == "error":
            raise TableMiss(
                f"architecture {arch} (class {sig[:12]}…) is not in the "
                f"table ({len(self.table)} rows)")
        if self.miss == "fallback":
            return EvalResult(self.fallback_reward, 0.0, 0)
        return EvalResult(self.FAILURE_REWARD, 0.0, 0)
