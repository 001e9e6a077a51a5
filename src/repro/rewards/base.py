"""Reward-estimation interface (§3.3).

A reward model turns an architecture into a scalar reward plus the cost
of obtaining it.  Two implementations exist:

* :class:`~repro.rewards.training.TrainingReward` really trains the
  numpy model (used for post-training experiments and laptop-scale
  searches);
* :class:`~repro.rewards.surrogate.SurrogateReward` computes a seeded
  deterministic architecture-quality score plus agent-keyed noise and a
  cost-model duration (used for at-scale simulated searches).

Both honour the paper's protocol detail that the *same architecture
evaluated by different agents gets different rewards* (agent-specific
random weight initialization), which is why the evaluation cache is
agent-local.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nas.arch import Architecture

__all__ = ["EvalResult", "RewardModel"]


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one reward estimation."""

    reward: float
    duration: float          # single-node wall seconds (real or modelled)
    params: int              # trainable parameters of the architecture
    timed_out: bool = False

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be non-negative")


class RewardModel:
    """Maps (architecture, agent seed) to an :class:`EvalResult`."""

    #: reward granted when an architecture fails to compile/train at all
    FAILURE_REWARD = -1.0

    #: optional shared :class:`~repro.nas.plancache.PlanCache`; attached
    #: by the search runtime so compiled plans amortize across agents
    plan_cache = None

    def evaluate(self, arch: Architecture, agent_seed: int = 0) -> EvalResult:
        raise NotImplementedError

    def set_plan_cache(self, cache) -> None:
        """Attach a shared compile cache (plans are immutable, so one
        cache safely serves every agent of a search)."""
        self.plan_cache = cache

    def prefetch_plan(self, arch: Architecture) -> None:
        """Warm the plan cache for ``arch`` before evaluation.

        The evaluator calls this once per distinct architecture of a batch
        so the compile cost is paid (and shared) at gather time.  The
        base implementation is a no-op; subclasses that compile override
        it.  Must never raise — invalid architectures surface as failure
        rewards at evaluation time, not here.
        """

    def _compile_plan(self, space, choices, input_shapes, head_ops):
        """Compile through the attached plan cache, or directly when
        none is attached (identical plans either way)."""
        from ..nas.builder import compile_architecture
        if self.plan_cache is not None:
            return self.plan_cache.get_or_compile(space, choices,
                                                  input_shapes, head_ops)
        return compile_architecture(space, choices, input_shapes, head_ops)
