"""The benchmark's four workloads.

Every workload is a fixed amount of search, built from one input seed,
run in this process on one thread.  A workload splits into three parts
that the runner times separately:

* ``inputs`` — input generation (the bench-table sweep, the synthetic
  dataset); never timed;
* ``setup`` — what a user waits for before the search starts: building
  the space and reward model, loading the table, and constructing
  ``NasSearch`` with its per-agent policies (``setup_s``);
* ``run`` — ``NasSearch.run()`` (``evals_per_s``), followed on the
  durable workload by ``resume_durable`` on the run's own journal
  (``recover_s``).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Callable

from repro import experiments
from repro.bench import SweepConfig, capped_space, sweep_space
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import get_space
from repro.problems.nt3 import NT3_PAPER_SHAPES, nt3_head
from repro.rewards import SurrogateReward, TabularReward, TrainingReward
from repro.search import NasSearch, SearchConfig
from repro.search.journal import resume_durable

__all__ = ["Workload", "WORKLOADS"]

#: agents never declare convergence on the in-host (serial backend)
#: workloads, so every run performs exactly its iteration budget
NEVER_CONVERGE = 10 ** 9

#: simulated minutes of the 1,024-node scaling run
SIM_MINUTES = 20.0
#: iterations per agent of the tabular workloads (4 agents x 11 workers)
RDM_ITERATIONS = 100
AMBS_ITERATIONS = 20
#: iterations per agent of the real-training workload (2 agents x 4)
TRAIN_ITERATIONS = 20
#: journal checkpoint generation cadence of the durable workload
CHECKPOINT_EVERY = 1024


@dataclass
class Workload:
    """One named workload; see the module docstring for the phases.  Why
    each workload exists is recorded next to its name in
    ``BENCHMARK.json``."""

    name: str
    #: ``(input_seed, workdir) -> inputs``; never timed
    inputs: Callable[[int, str], dict]
    #: ``(inputs, workdir) -> NasSearch``; timed as ``setup_s``
    setup: Callable[[dict, str], NasSearch]
    #: ``(finished search) -> None``, timed as ``recover_s``
    recover: Callable[[NasSearch], None] | None = None
    #: inputs are cheap, so a run rotates through several input sets
    rotates: bool = False
    #: runs on the simulated cluster, so virtual time advances
    simulated: bool = False


# -- bench table over the nt3 cap-ops-2 sub-space ------------------------
def _nt3_space():
    return capped_space(get_space("nt3-small", scale=0.05), 2)


def _table_inputs(seed: int, workdir: str) -> dict:
    """Sweep the exhaustive nt3 cap-ops-2 table (4,096 archs) with a
    surrogate landscape drawn from ``seed``."""
    space = _nt3_space()
    landscape = SurrogateReward(space, NT3_PAPER_SHAPES, nt3_head(),
                                TrainingCostModel.nt3_paper(), epochs=1,
                                train_fraction=1.0, timeout=600.0, seed=seed)
    table_dir = os.path.join(workdir, "table")
    shutil.rmtree(table_dir, ignore_errors=True)
    metadata = {"problem": "nt3", "size": "small", "scale": 0.05,
                "cap_ops": 2, "cap": None, "seed": 0,
                "reward": {"kind": "surrogate", "landscape_seed": seed,
                           "fraction": 1.0}}
    report = sweep_space(space, landscape, table_dir,
                         SweepConfig(shard_size=4096), metadata=metadata)
    return {"seed": seed, "table_dir": table_dir, "rows": report.total_rows,
            "table_fingerprint": report.fingerprint}


def _tabular_reward(inputs: dict) -> TabularReward:
    return TabularReward.from_table_dir(inputs["table_dir"], _nt3_space(),
                                        NT3_PAPER_SHAPES, nt3_head())


def _tabular_config(inputs: dict, method: str, iterations: int,
                    **extra) -> SearchConfig:
    return SearchConfig(method=method,
                        allocation=NodeAllocation(4 * (11 + 1) + 1, 4, 11),
                        seed=inputs["seed"], backend="serial",
                        max_iterations=iterations,
                        convergence_patience=NEVER_CONVERGE, **extra)


def _rdm_durable_search(inputs: dict, workdir: str) -> NasSearch:
    journal_dir = os.path.join(workdir, "journal")
    shutil.rmtree(journal_dir, ignore_errors=True)
    reward = _tabular_reward(inputs)
    cfg = _tabular_config(inputs, "rdm", RDM_ITERATIONS,
                          journal_dir=journal_dir,
                          checkpoint_every_records=CHECKPOINT_EVERY)
    return NasSearch(reward.resolver.structure, reward, cfg)


def _recover(search: NasSearch) -> None:
    """``resume_durable`` on a finished run's own journal directory; the
    rebuilt search is closed, never run."""
    resume_durable(search.space, search.reward_model,
                   search.config).journal.close()


def _ambs_search(inputs: dict, workdir: str) -> NasSearch:
    reward = _tabular_reward(inputs)
    cfg = _tabular_config(inputs, "ambs", AMBS_ITERATIONS)
    return NasSearch(reward.resolver.structure, reward, cfg)


# -- the paper-scale simulated run ---------------------------------------
def _sim_inputs(seed: int, workdir: str) -> dict:
    return {"seed": seed}


def _sim_search(inputs: dict, workdir: str) -> NasSearch:
    experiments.space_for.cache_clear()     # setup builds the space
    reward = experiments.surrogate_for("combo", "small", seed=inputs["seed"])
    alloc = experiments.allocation(1024)
    cfg = SearchConfig(method="a3c", allocation=alloc,
                       wall_time=SIM_MINUTES * 60.0, seed=inputs["seed"])
    return NasSearch(reward.space, reward, cfg)


# -- real training --------------------------------------------------------
def _frozen_clock() -> float:
    """Training-reward clock: durations are recorded as 0 so records,
    and the fingerprint over them, do not depend on host speed."""
    return 0.0


def _train_inputs(seed: int, workdir: str) -> dict:
    return {"seed": seed, "problem": experiments.working_problem("combo")}


def _train_search(inputs: dict, workdir: str) -> NasSearch:
    problem = inputs["problem"]
    reward = TrainingReward(problem, epochs=1, base_seed=inputs["seed"],
                            clock=_frozen_clock)
    cfg = SearchConfig(method="a3c", allocation=NodeAllocation(11, 2, 4),
                       seed=inputs["seed"], backend="serial",
                       max_iterations=TRAIN_ITERATIONS,
                       convergence_patience=NEVER_CONVERGE)
    return NasSearch(problem.space, reward, cfg)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("sim_a3c_1024", _sim_inputs, _sim_search, rotates=True,
             simulated=True),
    Workload("tabular_rdm_durable", _table_inputs, _rdm_durable_search,
             recover=_recover),
    Workload("tabular_ambs", _table_inputs, _ambs_search),
    Workload("train_combo_a3c", _train_inputs, _train_search, rotates=True),
)}
