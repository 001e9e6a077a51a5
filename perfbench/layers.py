"""The layers the traced run attributes host time to.

Each layer is one span name and the ``repro`` entry points that open it
(see :mod:`perfbench.trace`).  Names follow the module that owns the
code: ``<package>.<module>.<entry point>``.  Whatever runs inside
``hpc.sim.run`` but outside every other span — the event loop itself
and the simulated Balsam job pilots — is the sim kernel's self time.
"""

from __future__ import annotations

import os

from .trace import Patch

__all__ = ["PATCHES", "LAYERS", "EXTRA_METRICS", "EXPECTED",
           "per_layer_names"]


PATCHES: tuple[Patch, ...] = (
    Patch("search.loop.run", "repro.search.loop:AgentLoop.run"),
    Patch("search.proposer.propose", "repro.search.proposer:Proposer.propose"),
    Patch("search.proposer.observe", "repro.search.proposer:Proposer.observe"),
    Patch("search.ambs.fit", "repro.search.ambs:RidgeEnsemble.fit"),
    Patch("search.ambs.predict", "repro.search.ambs:RidgeEnsemble.predict"),
    Patch("search.ambs.encode", "repro.search.ambs:encode_rows"),
    Patch("search.proposer.mutate", "repro.search.proposer:mutate_choices"),
    Patch("rl.policy.sample", "repro.rl.policy:LSTMPolicy.sample"),
    Patch("rl.ppo.update_delta", "repro.rl.ppo:PPOUpdater.update_delta"),
    Patch("rl.parameter_server.push",
          "repro.rl.parameter_server:ParameterServer.push_async"),
    Patch("rl.parameter_server.push",
          "repro.rl.parameter_server:ParameterServer.push_sync"),
    Patch("nas.space.decode", "repro.nas.space:Structure.decode"),
    Patch("nas.plancache.signature",
          "repro.nas.plancache:SignatureResolver.signature"),
    Patch("nas.plancache.get_or_compile",
          "repro.nas.plancache:PlanCache.get_or_compile"),
    Patch("nas.builder.compile", "repro.nas.builder:compile_architecture"),
    Patch("nas.builder.materialize", "repro.nas.builder:Plan.materialize"),
    Patch("rewards.evaluate", "repro.rewards.base:RewardModel.evaluate"),
    Patch("nn.trainer.fit", "repro.nn.training:Trainer.fit"),
    Patch("nn.graph.forward", "repro.nn.graph:GraphModel.forward"),
    Patch("nn.graph.backward", "repro.nn.graph:GraphModel.backward"),
    Patch("nn.optimizers.step", "repro.nn.optimizers:Optimizer.step"),
    Patch("nn.optimizers.step", "repro.nn.optimizers:FlatOptimizer.step"),
    Patch("evaluator.add_eval_batch",
          "repro.evaluator.base:Evaluator.add_eval_batch"),
    Patch("evaluator.balsam.submit",
          "repro.evaluator.balsam:BalsamService.submit"),
    Patch("evaluator.cache.snapshot",
          "repro.evaluator.cache:EvalCache.snapshot"),
    Patch("verify.fingerprint.chain_step",
          "repro.verify.fingerprint:chain_step"),
    Patch("hpc.sim.run", "repro.hpc.sim:Simulator.run"),
    Patch("search.runner.init", "repro.search.runner:NasSearch.__init__"),
    Patch("search.journal.open", "repro.search.journal:SearchJournal.__init__"),
    Patch("search.journal.append",
          "repro.search.journal:JournalWriter.append"),
    Patch("search.journal.checkpoint_save",
          "repro.search.journal:CheckpointGenerations.save",
          measure=os.path.getsize),
    Patch("search.journal.checkpoint_load",
          "repro.search.journal:CheckpointGenerations.load_latest"),
    Patch("search.journal.read", "repro.search.journal:read_journal"),
    Patch("search.journal.build_replay",
          "repro.search.journal:build_replay"),
)

#: span names, in table order, each reported as ``.calls`` and ``.self_s``
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(p.layer for p in PATCHES))

#: per-layer metrics that are not span tallies: (name, unit)
EXTRA_METRICS: tuple[tuple[str, str], ...] = (
    ("nas.plancache.hit_ratio", "ratio"),
    ("nas.plancache.iso_hits", "count"),
    ("evaluator.cache_hit_ratio", "ratio"),
    ("hpc.sim.callbacks", "count"),
    ("search.journal.append.bytes", "B"),
    ("search.journal.checkpoint_save.bytes", "B"),
    ("unattributed_s", "s"),
    ("wall_s", "s"),
    ("tracing_overhead_s", "s"),
)

_COMMON = ("search.loop.run", "search.proposer.propose",
           "search.proposer.observe", "nas.space.decode",
           "nas.plancache.get_or_compile", "nas.builder.compile",
           "rewards.evaluate", "evaluator.add_eval_batch",
           "verify.fingerprint.chain_step", "hpc.sim.run")
_POLICY = ("rl.policy.sample", "rl.ppo.update_delta",
           "rl.parameter_server.push", "nn.optimizers.step")
_TABULAR = ("nas.plancache.signature",)

#: layers that must fire (``calls > 0``) on each workload
EXPECTED: dict[str, tuple[str, ...]] = {
    "sim_a3c_1024": _COMMON + _POLICY + ("evaluator.balsam.submit",),
    "tabular_rdm_durable": _COMMON + _TABULAR + (
        "search.journal.append", "search.journal.checkpoint_save",
        "evaluator.cache.snapshot", "search.runner.init",
        "search.journal.open", "search.journal.checkpoint_load",
        "search.journal.read", "search.journal.build_replay"),
    "tabular_ambs": _COMMON + _TABULAR + (
        "search.ambs.fit", "search.ambs.predict", "search.ambs.encode",
        "search.proposer.mutate"),
    "train_combo_a3c": _COMMON + _POLICY + (
        "nas.builder.materialize", "nn.trainer.fit", "nn.graph.forward",
        "nn.graph.backward"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
    return out + list(EXTRA_METRICS)
