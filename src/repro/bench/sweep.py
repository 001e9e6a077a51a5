"""Resumable space sweeper: enumerate, evaluate, persist (tentpole §1).

The sweeper turns a search space plus a reward model into a benchmark
table: it walks :func:`~repro.bench.subspace.enumerate_space`'s
deterministic stream, fans evaluations out through the existing
:class:`~repro.evaluator.base.Evaluator` front-end (serial, thread
pool, or the supervised multi-process pool), and appends one row per
isomorphism class to a crash-consistent
:class:`~repro.bench.table.TableWriter`.

Design points:

* **signature dedup before dispatch** — every enumerated architecture
  is resolved to its :func:`~repro.nas.plancache.plan_signature` first
  (through the shared :class:`~repro.nas.plancache.PlanCache`, so the
  compile amortizes with the evaluation's own compile); classes already
  in the table — from this run *or a previous killed run* — are
  skipped, which is exactly what makes a resumed sweep evaluate nothing
  twice;
* **invalid architectures** (compile errors, e.g. pooling exhausting
  NT3's sequence) are counted and skipped rather than stored: they are
  not rows of the benchmark, and :class:`~repro.rewards.tabular.
  TabularReward` maps them to ``FAILURE_REWARD`` without a lookup;
* **batched dispatch with a barrier per batch** — completion order
  inside a batch is backend-dependent (thread/process), but rows are
  written in *submission* order from the batch's result map, so the
  shard stream — and therefore the table fingerprint — is identical
  across backends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..evaluator.process import ProcConfig, ProcessEvaluator
from ..evaluator.serial import SerialEvaluator
from ..evaluator.thread import ThreadEvaluator
from ..nas.plancache import PlanCache, SignatureResolver
from ..nas.space import Structure
from ..rewards.base import RewardModel
from .subspace import enumerate_space
from .table import ArchTable, TableRow, TableWriter

__all__ = ["SweepConfig", "SweepReport", "SpaceSweeper", "sweep_space"]

_BACKENDS = ("serial", "thread", "process")
#: agent seed handed to the reward model for every evaluation — one
#: fixed observer, so the table is a deterministic ground truth
_AGENT_SEED = 0


@dataclass(frozen=True)
class SweepConfig:
    """How a sweep enumerates and evaluates."""

    #: evaluation backend: "serial" | "thread" | "process"
    backend: str = "serial"
    #: worker threads / processes for the parallel backends
    workers: int = 2
    #: architectures submitted per evaluator batch (barrier per batch)
    batch_size: int = 16
    #: rows per table shard before it is sealed + published
    shard_size: int = 256
    #: stratified-sampling cap: spaces larger than this are sampled,
    #: smaller ones enumerated exhaustively (None = always exhaustive)
    cap: int | None = None
    #: seed of the stratified sample (ignored for exhaustive sweeps)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.workers <= 0:
            raise ValueError("workers must be positive")


@dataclass
class SweepReport:
    """What one sweep run did (resume-aware)."""

    space: str
    backend: str
    enumerated: int = 0          # architectures drawn from the stream
    evaluated: int = 0           # rows written by THIS run
    resumed: int = 0             # rows already in the table at open
    iso_skips: int = 0           # enumerated archs deduped by signature
    invalid: int = 0             # architectures that failed to compile
    failed: int = 0              # evaluations surfaced as FAILURE_REWARD
    shards: int = 0
    total_rows: int = 0          # rows in the table after the sweep
    fingerprint: str = ""
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return dict(self.__dict__)


class SpaceSweeper:
    """Sweeps one space into a table directory; see module docstring."""

    def __init__(self, space: Structure, reward_model: RewardModel,
                 out_dir, config: SweepConfig | None = None,
                 metadata: dict | None = None) -> None:
        self.space = space
        self.reward_model = reward_model
        self.out_dir = out_dir
        self.config = config or SweepConfig()
        self.metadata = metadata

    def _build_evaluator(self):
        cfg = self.config
        # the sweep evaluates each class exactly once, so the agent-local
        # EvalCache would only burn memory — off
        if cfg.backend == "serial":
            return SerialEvaluator(self.reward_model, _AGENT_SEED,
                                   use_cache=False)
        if cfg.backend == "thread":
            return ThreadEvaluator(self.reward_model, _AGENT_SEED,
                                   max_workers=cfg.workers, use_cache=False)
        return ProcessEvaluator(self.reward_model, _AGENT_SEED,
                                config=ProcConfig(workers=cfg.workers),
                                use_cache=False)

    def run(self) -> SweepReport:
        cfg = self.config
        start = time.monotonic()
        # one shared compile cache: the signature resolve and the
        # evaluation's own compile pay for a plan once between them
        if self.reward_model.plan_cache is None:
            self.reward_model.set_plan_cache(PlanCache())
        resolver = SignatureResolver(
            self.space, self._input_shapes(), self._head_ops(),
            plan_cache=self.reward_model.plan_cache)

        report = SweepReport(space=self.space.name, backend=cfg.backend)
        writer = TableWriter(self.out_dir, self.space.name,
                             shard_size=cfg.shard_size,
                             metadata=self.metadata)
        report.resumed = len(writer.known)
        evaluator = self._build_evaluator()
        try:
            batch: list[tuple[str, object]] = []   # (sig, arch) to evaluate
            pending: set[str] = set()
            for arch in enumerate_space(self.space, cap=cfg.cap,
                                        seed=cfg.seed):
                report.enumerated += 1
                sig = resolver.try_signature(arch)
                if sig is None:
                    report.invalid += 1
                    continue
                if sig in writer.known or sig in pending:
                    report.iso_skips += 1
                    continue
                pending.add(sig)
                batch.append((sig, arch))
                if len(batch) >= cfg.batch_size:
                    self._flush(batch, evaluator, writer, report)
                    pending.clear()
                    batch = []
            if batch:
                self._flush(batch, evaluator, writer, report)
        finally:
            evaluator.shutdown()
            writer.close()

        report.shards = writer.num_shards
        report.total_rows = len(writer.known)
        report.fingerprint = ArchTable.load(self.out_dir).fingerprint()
        report.elapsed = time.monotonic() - start
        return report

    def _flush(self, batch, evaluator, writer, report) -> None:
        """Dispatch one batch, barrier on it, write rows in submission
        order (order-stable across backends)."""
        archs = [arch for _, arch in batch]
        evaluator.add_eval_batch(archs)
        evaluator.wait_all()
        results = {}
        for rec in evaluator.get_finished_evals():
            results[rec.arch.key] = rec.result
        for sig, arch in batch:
            result = results[arch.key]
            if result.reward == RewardModel.FAILURE_REWARD:
                report.failed += 1
            writer.append(TableRow(
                sig=sig, space=arch.space, choices=arch.choices,
                reward=float(result.reward),
                duration=float(result.duration),
                params=int(result.params),
                timed_out=bool(result.timed_out)))
            report.evaluated += 1

    # -- compile context discovery -------------------------------------
    # Reward models know their own compile context under two naming
    # conventions (SurrogateReward carries it directly, TrainingReward
    # via its problem); the resolver needs the same context to produce
    # the same plans.
    def _input_shapes(self) -> dict:
        model = self.reward_model
        if hasattr(model, "input_shapes"):
            return model.input_shapes
        if hasattr(model, "problem"):
            return model.problem.input_shapes
        raise ValueError(
            f"{type(model).__name__} exposes no input shapes; pass a "
            f"reward model with .input_shapes or .problem")

    def _head_ops(self):
        model = self.reward_model
        if hasattr(model, "head_ops"):
            return model.head_ops
        if hasattr(model, "problem"):
            return model.problem.head_ops
        return None


def sweep_space(space: Structure, reward_model: RewardModel, out_dir,
                config: SweepConfig | None = None,
                metadata: dict | None = None) -> SweepReport:
    """Convenience one-call sweep (resume-aware: rerunning over an
    existing directory finishes the remaining classes)."""
    return SpaceSweeper(space, reward_model, out_dir, config,
                        metadata).run()

