"""Chaos harness: one table of fault scenarios over the search runtime.

``make chaos`` / ``repro-chaos`` runs seeded NAS searches under injected
faults and checks the robustness invariants each layer promises.  Each
scenario is one :data:`SCENARIOS` row: a cell runner (faults × methods ×
backends), the columns that must stay zero, the columns that must fire,
and at most one check across rows.  :func:`run`, :func:`check` and
:func:`report` serve every row, so a new scenario is one new row.

* ``faults`` — none/light/moderate/heavy infrastructure faults.  Every
  run completes (the batch deadline and Balsam retries always release a
  barrier), failures surface as the paper's −1 reward, and the best
  reward stays within a tolerance of the same method's fault-free run,
  because Balsam restarts failed tasks and the agents keep searching
  (§4's "tracks job states and restarts failed tasks").  The fault-free
  row doubles as a canary: it must behave bit-identically to a search
  with no fault layer at all.
* ``numeric`` — NaN gradients, exploding updates, and corrupt exchange
  deltas under guard-mode ``recover`` (:mod:`repro.health`): the search
  heals with at least one rollback and one resurrection, loses no agent
  below the restart cap, and keeps a finite best reward.
* ``proc`` — SIGKILLed workers and really crashing/hanging evaluations
  over the supervised process backend.
* ``crashpoint`` — SIGKILL the whole search at stratified journal
  records; resume must be bit-identical with zero re-evaluation.

Every row also accounts for every record: per agent, the result's
records must equal, in order, the ones the run's event stream rebuilds
(``unaccounted_agents`` stays zero), an invariant that needs no
reference run.

Run via ``make chaos`` or::

    PYTHONPATH=src python -m repro.search.chaos --minutes 45
    PYTHONPATH=src python -m repro.search.chaos --profile all --methods a2c
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..evaluator.process import ProcConfig, ProcessEvaluator
from ..events import (EVAL_DONE, QUARANTINE, WORKER_CRASH, WORKER_RESPAWN,
                      WORKER_SPAWN, RecordingSink)
from ..health import GuardConfig
from ..hpc import NodeAllocation, TrainingCostModel
from ..hpc.faults import FaultConfig
from ..nas.arch import Architecture
from ..nas.spaces import combo_small
from ..problems.combo import COMBO_PAPER_SHAPES, combo_head
from ..rewards import SurrogateReward
from ..rewards.base import EvalResult, RewardModel
from .base import SearchConfig
from .journal import JOURNAL_NAME, read_journal, read_records, resume_durable
from .runner import NasSearch

__all__ = ["ChaosEvalModel", "Scenario", "SCENARIOS", "fault_levels",
           "crashpoint_child", "journal_real_evals", "run", "check",
           "report", "main"]

#: default chaos allocation: small enough to run in seconds, large
#: enough that node failures hit busy pilots
_ALLOCATION = NodeAllocation(32, 4, 3)


@dataclass
class ChaosEvalModel(RewardModel):
    """A reward model that really crashes, hangs, or stalls — and counts.

    Wraps an inner model and, per architecture, draws a deterministic
    fault: ``crash_frac`` of architectures hard-kill their worker with
    ``os._exit`` (a real segfault-equivalent no ``except`` can catch),
    ``hang_frac`` sleep past any reasonable deadline, and the rest
    optionally stall ``eval_seconds`` before answering (deterministic
    stragglers for lifecycle tests).  The draw is keyed by
    ``(seed, arch.key)`` only — the *same* architecture faults the same
    way on every attempt in every process, which is exactly what makes
    it a poison job the quarantine must catch.

    ``calls`` counts ``evaluate`` invocations in this process.  With no
    fault configured the model is a pure counting pass-through: the
    crash-point fuzzer wraps every resumed run with it, so any
    journal-covered evaluation that sneaks past the replay layer and
    re-executes bumps the count.

    The class lives here (an importable ``src`` module, not a test
    file) because ``spawn``-context workers must re-import it by module
    path when the pickled model arrives in the child.
    """

    inner: RewardModel
    crash_frac: float = 0.0
    hang_frac: float = 0.0
    hang_seconds: float = 3600.0
    eval_seconds: float = 0.0
    seed: int = 0
    #: exit code of injected crashes (visible in WORKER_CRASH causes)
    crash_exit_code: int = 23
    calls: int = 0
    plan_cache: object = field(default=None, repr=False)
    #: serializes ``calls`` updates from thread-backend workers; a class
    #: attribute, so pickled models (spawn workers) carry none
    _calls_lock = threading.Lock()

    def _draw(self, arch: Architecture) -> float:
        return zlib.crc32(repr((self.seed, arch.key)).encode()) / 2.0 ** 32

    def fault_kind(self, arch: Architecture) -> str:
        """What this architecture will do: crash | hang | ok."""
        u = self._draw(arch)
        if u < self.crash_frac:
            return "crash"
        if u < self.crash_frac + self.hang_frac:
            return "hang"
        return "ok"

    def evaluate(self, arch: Architecture, agent_seed: int = 0) -> EvalResult:
        with self._calls_lock:
            self.calls += 1
        kind = self.fault_kind(arch)
        if kind == "crash":
            os._exit(self.crash_exit_code)
        if kind == "hang":
            time.sleep(self.hang_seconds)
        if self.eval_seconds > 0:
            time.sleep(self.eval_seconds)
        return self.inner.evaluate(arch, agent_seed=agent_seed)

    def set_plan_cache(self, cache) -> None:
        self.plan_cache = cache
        self.inner.set_plan_cache(cache)

    def prefetch_plan(self, arch: Architecture) -> None:
        self.inner.prefetch_plan(arch)


def _surrogate(space) -> SurrogateReward:
    """The combo-small surrogate every scenario searches against."""
    return SurrogateReward(
        space, COMBO_PAPER_SHAPES, combo_head(),
        TrainingCostModel.combo_paper(),
        epochs=1, train_fraction=0.1, timeout=600.0,
        log_params_opt=6.5, seed=7)


def _run_row(level: str, search: NasSearch, sink: RecordingSink,
             columns) -> dict:
    """Run ``search`` (built with ``event_sink=sink``) into one result
    row: the columns every search scenario shares, then
    ``columns(search, result)``'s own."""
    result = search.run()
    best = result.best().reward if result.records else float("-inf")
    return {"level": level, "method": search.config.method,
            "evaluations": result.num_evaluations, "best_reward": best,
            "finite_best": math.isfinite(best),
            "failed_evals": result.num_failed_evals,
            "failed_agents": len(result.failed_agents),
            "unaccounted_agents": _unaccounted_agents(sink.events, result),
            **columns(search, result)}


def _unaccounted_agents(events, result) -> int:
    """Agents whose records differ, as ordered lists, from the ones
    :func:`~repro.search.journal.read_records` rebuilds from ``events``
    — the record accounting that needs no reference run."""
    rebuilt = read_records(events)[0]

    def records_of(records, agent_id):
        return [json.dumps(r.to_json(), sort_keys=True) for r in records
                if r.agent_id == agent_id]
    return sum(1 for a in {r.agent_id for r in rebuilt + result.records}
               if records_of(rebuilt, a) != records_of(result.records, a))


def fault_levels(minutes: float, seed: int) -> list[tuple[str,
                                                          FaultConfig | None]]:
    """The fault matrix: (name, config) rows, fault-free first.

    Rates scale with the run length so every faulted level actually
    fires: "light" sees a few node failures, "heavy" adds frequent
    failures, job crashes, stragglers, and a mid-run service outage.
    """
    span = minutes * 60.0
    return [
        ("none", None),
        ("light", FaultConfig(node_mtbf=4.0 * span,
                              node_repair_time=span / 10.0,
                              job_crash_prob=0.01, seed=seed)),
        ("moderate", FaultConfig(node_mtbf=2.0 * span,
                                 node_repair_time=span / 10.0,
                                 job_crash_prob=0.02,
                                 straggler_prob=0.05, seed=seed)),
        ("heavy", FaultConfig(node_mtbf=span,
                              node_repair_time=span / 8.0,
                              job_crash_prob=0.05,
                              straggler_prob=0.10,
                              outages=((0.45 * span, 0.55 * span),),
                              seed=seed)),
    ]


def _fault_cell(method: str, minutes: float = 45.0, seed: int = 1,
                levels: tuple[str, ...] | None = None) -> list[dict]:
    """One row per fault level for ``method``, fault-free first.

    ``levels`` restricts the run to a subset of the matrix (the
    fault-free ``"none"`` row is the comparison baseline and should be
    included); ``None`` runs every level.
    """
    space = combo_small()
    rows = []
    for name, faults in fault_levels(minutes, seed):
        if levels is not None and name not in levels:
            continue
        cfg = SearchConfig(
            method=method, allocation=_ALLOCATION,
            wall_time=minutes * 60.0, seed=seed, faults=faults,
            batch_deadline=(None if faults is None else minutes * 60.0 / 4))
        sink = RecordingSink()
        search = NasSearch(space, _surrogate(space), cfg, event_sink=sink)
        rows.append(_run_row(
            f"faults/{method}/{name}", search, sink, lambda s, r: {
                "node_failures": s.cluster.num_failures,
                "job_restarts": s.service.num_restarts,
                "mean_utilization": s.cluster.mean_utilization(r.end_time)}))
    return rows


def _reward_drop(rows: list[dict], tolerance: float) -> list[str]:
    """Each faulted row's best-reward drop against the fault-free row
    of the same method (the first row that method produced)."""
    problems, baselines = [], {}
    for row in rows:
        base = baselines.setdefault(row["method"], row)
        drop = base["best_reward"] - row["best_reward"]
        if drop > tolerance * abs(base["best_reward"]):
            problems.append(
                f"{row['level']}: best reward degraded by {drop:.4f} "
                f"(> {tolerance:.0%} of fault-free "
                f"{base['best_reward']:.4f})")
    return problems


def _numeric_cell(method: str, minutes: float = 40.0, seed: int = 1,
                  max_restarts: int = 3) -> list[dict]:
    """Numerical-health chaos: one row for ``method`` (a PPO method).

    The run injects NaN gradients, exploding updates, and corrupt
    exchange deltas while the health layer runs in ``recover`` mode —
    rollback first, resurrection when the rollback budget is spent.
    """
    space = combo_small()
    cfg = SearchConfig(
        method=method, allocation=_ALLOCATION,
        wall_time=minutes * 60.0, seed=seed,
        faults=FaultConfig(nan_grad_prob=0.05, exploding_loss_prob=0.02,
                           corrupt_delta_prob=0.05, seed=seed + 2),
        guard=GuardConfig(mode="recover"), max_restarts=max_restarts)
    sink = RecordingSink()
    search = NasSearch(space, _surrogate(space), cfg, event_sink=sink)
    return [_run_row(f"numeric/{method}", search, sink, lambda s, r: {
        "rollbacks": r.num_rollbacks, "restarts": r.num_restarts,
        "numeric_faults": (s.injector.num_numeric_faults
                           if s.injector else 0),
        "rejected_deltas": getattr(s.ps, "num_rejected_deltas", 0)})]


def _proc_cell(method: str, seed: int = 1, iterations: int = 3,
               kill_interval: float = 0.4, max_kills: int = 4) -> list[dict]:
    """Real-fault chaos over the supervised process backend.

    The row runs a small search with ``backend="process"`` against a
    :class:`ChaosEvalModel` whose architectures really crash
    (``os._exit``) and really hang, while a killer thread SIGKILLs live
    worker processes mid-evaluation.  The supervision layer must absorb
    all of it: crashed/hung workers are respawned, their jobs retried,
    poison architectures quarantined to the failure reward, and the
    search completes with supervision counters surfaced in
    ``SearchResult.worker_stats`` and WORKER_* events in the stream.

    Determinism note: rewards are pure functions of the architecture,
    so retries — however the killer interleaves with them — return the
    same values and the sampled trajectory stays seed-deterministic.
    """
    space = combo_small()
    model = ChaosEvalModel(_surrogate(space), crash_frac=0.10,
                           hang_frac=0.08, hang_seconds=30.0,
                           eval_seconds=0.05, seed=seed)
    # generous respawn budget: quarantine (2 distinct kills) must always
    # fire before the pool can exhaust, because the inline fallback must
    # never execute a not-yet-quarantined poison job in the parent
    cfg = SearchConfig(
        method=method, allocation=NodeAllocation(10, 2, 3),
        wall_time=3600.0, seed=seed, backend="process",
        max_iterations=iterations,
        proc=ProcConfig(workers=2, job_deadline=1.0, heartbeat_interval=0.1,
                        retry_backoff=0.02, max_respawns=50))
    sink = RecordingSink()
    search = NasSearch(space, model, cfg, event_sink=sink)
    stop = threading.Event()
    kills = [0]

    def killer():
        while not stop.is_set() and kills[0] < max_kills:
            stop.wait(kill_interval)
            pids = [pid for ev in search.evaluators
                    if isinstance(ev, ProcessEvaluator)
                    for pid in ev.worker_pids()]
            if not pids:
                continue
            try:
                os.kill(pids[kills[0] % len(pids)], signal.SIGKILL)
                kills[0] += 1
            except OSError:
                pass    # worker exited between listing and kill

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    try:
        row = _run_row(f"proc/{method}", search, sink, lambda s, r: {
            **r.worker_stats, "worker_faults": (
                r.worker_stats["worker_crashes"]
                + r.worker_stats["worker_timeouts"]),
            "events_ok": ({WORKER_SPAWN, WORKER_CRASH, WORKER_RESPAWN,
                           QUARANTINE} <= set(sink.kinds()))})
    finally:
        stop.set()
        thread.join(5.0)
    return [{**row, "external_kills": kills[0]}]


# ----------------------------------------------------------------------
# crash-point fuzzing (write-ahead journal durability)
# ----------------------------------------------------------------------
def crashpoint_child(journal_dir, method: str = "a3c",
                     backend: str = "serial", seed: int = 3,
                     iterations: int = 4, throttle: float = 0.0):
    """One durable search over ``journal_dir`` — first launch and every
    relaunch alike (it goes through
    :func:`~repro.search.journal.resume_durable`).

    This is both the subprocess entry the fuzzer SIGKILLs (``throttle``
    stalls each evaluation so the parent can aim between journal
    records; the stall never touches rewards or modeled durations, so
    fingerprints are unaffected) and the in-parent resume path.  The
    reward model is a :class:`ChaosEvalModel` whose ``calls`` counts
    this process's real executions.  Returns ``(result, search,
    model)``.
    """
    space = combo_small()
    model = ChaosEvalModel(_surrogate(space), eval_seconds=throttle,
                           seed=seed)
    cfg = SearchConfig(
        method=method, allocation=NodeAllocation(10, 2, 3),
        wall_time=3600.0, seed=seed, backend=backend,
        max_iterations=iterations,
        proc=ProcConfig(workers=2) if backend == "process" else None,
        journal_dir=os.fspath(journal_dir), checkpoint_every_records=6)
    search = resume_durable(space, model, cfg)
    result = search.run()
    return result, search, model


def journal_real_evals(journal_dir) -> int:
    """Real executions recorded in the journal: ``eval-done`` records
    that are neither cache hits (those emit ``cache-hit``) nor replay
    re-emissions (``replayed=True``)."""
    path = Path(journal_dir) / JOURNAL_NAME
    if not path.exists():
        return 0
    return sum(1 for e in read_journal(path)
               if e.kind == EVAL_DONE and "arch" in e.payload
               and not e.payload.get("replayed"))


def _spawn_and_kill_at(journal_dir, k: int, method: str, backend: str,
                       seed: int, iterations: int, throttle: float,
                       timeout: float = 180.0) -> bool:
    """Launch a durable search subprocess and SIGKILL its whole process
    group once the journal holds >= ``k`` records.

    ``start_new_session`` + ``killpg`` take down the search head *and*
    any spawn-context pool workers in one shot — the moral equivalent of
    losing the node, and the only way a process-backend child dies
    without leaving orphans blocked on their task queue.  Returns True
    when the kill landed, False when the child finished first (a valid
    fuzz outcome near the end of the journal: the resume is asserted
    either way).
    """
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    code = ("from repro.search.chaos import crashpoint_child; "
            f"crashpoint_child({os.fspath(journal_dir)!r}, {method!r}, "
            f"{backend!r}, {seed}, {iterations}, {throttle})")
    child = subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL,
                             start_new_session=True)
    journal_path = Path(journal_dir) / JOURNAL_NAME
    deadline = time.monotonic() + timeout
    killed = False
    try:
        while time.monotonic() < deadline:
            if child.poll() is not None:
                return False        # finished before record k
            try:
                records = journal_path.read_bytes().count(b"\n")
            except OSError:
                records = 0
            if records >= k:
                killed = True
                break
            time.sleep(0.01)
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except OSError:
            pass                    # group already gone
        return killed
    finally:
        child.wait()


def _crashpoint_cell(method: str, seed: int = 3, iterations: int = 4,
                     points: int = 3,
                     backends: tuple[str, ...] = ("serial", "thread",
                                                  "process"),
                     throttle: float = 0.05) -> list[dict]:
    """SIGKILL-anywhere fuzzing of the write-ahead journal: one row per
    backend for ``method``.

    Per backend: run the search uninterrupted once (the baseline journal
    gives the total record count, the real-execution count, and the
    reference fingerprint), pick ``points`` stratified kill indices over
    the record range, and for each index run a fresh subprocess, SIGKILL
    its process group at that journal record, resume in-process, and
    check the two durability promises — the resumed fingerprint is
    bit-identical to the uninterrupted run's, and the total number of
    real reward-model executions across crashed run + resume equals the
    uninterrupted run's (zero re-evaluation).
    """
    rows = []
    for backend in backends:
        with tempfile.TemporaryDirectory(prefix="crashpoint-base-",
                                         ignore_cleanup_errors=True) as base:
            base_fp = crashpoint_child(base, method, backend, seed,
                                       iterations)[0].fingerprint()
            base_real = journal_real_evals(base)
            total = (Path(base) / JOURNAL_NAME).read_bytes().count(b"\n")
        kill_points = sorted({max(1, total * i // (points + 1))
                              for i in range(1, points + 1)})
        row = {"level": f"crashpoint/{method}/{backend}",
               "journal_records": total, "baseline_evals": base_real,
               "kill_points": kill_points, "kills_landed": 0,
               "replay_loaded": 0, "fingerprint_mismatches": 0,
               "reevaluations": 0, "replay_leftover": 0,
               "direct_reexec": 0, "unaccounted_agents": 0}
        for k in kill_points:
            with tempfile.TemporaryDirectory(
                    prefix="crashpoint-", ignore_cleanup_errors=True) as crash:
                row["kills_landed"] += int(_spawn_and_kill_at(
                    crash, k, method, backend, seed, iterations, throttle))
                real_at_kill = journal_real_evals(crash)
                result, search, model = crashpoint_child(
                    crash, method, backend, seed, iterations)
                row["replay_loaded"] += search.num_replay_loaded
                row["fingerprint_mismatches"] += int(
                    result.fingerprint() != base_fp)
                # zero re-evaluation, from the journal itself: real
                # executions across dead run + resume must equal the
                # uninterrupted run's (works for every backend — the
                # evaluator journals eval-done in the search head)
                row["reevaluations"] += max(
                    0, journal_real_evals(crash) - base_real)
                # every armed replay entry must have been consumed
                row["replay_leftover"] += sum(
                    ev.replay_pending() for ev in search.evaluators)
                row["unaccounted_agents"] += _unaccounted_agents(
                    read_journal(Path(crash) / JOURNAL_NAME), result)
                if backend != "process":
                    # in-process backends: the resumed run's direct call
                    # count must be exactly the journal deficit
                    row["direct_reexec"] += max(
                        0, model.calls - (base_real - real_at_kill))
        rows.append(row)
    return rows


def _replay_loaded(rows: list[dict], tolerance: float) -> list[str]:
    """At least one resume across the profile loaded a replay entry
    (otherwise every kill landed on a checkpoint boundary)."""
    if rows and not any(row["replay_loaded"] for row in rows):
        return [f"{', '.join(row['level'] for row in rows)}: no run ever "
                f"loaded a replay entry — every kill landed on a "
                f"checkpoint boundary"]
    return []


@dataclass(frozen=True)
class Scenario:
    """One chaos scenario: how its cells run and what must hold."""

    #: ``cell(method, **options) -> rows`` for one method's cell(s)
    cell: Callable[..., list[dict]]
    #: methods when the caller (or ``--methods``) names none
    methods: tuple[str, ...]
    #: column -> violation message when it is non-zero (``{}`` = value)
    zero: dict[str, str]
    #: column -> violation message when it is zero/false
    fire: dict[str, str]
    #: columns :func:`report` prints after ``level``
    columns: tuple[str, ...]
    #: the cell options the CLI's flags set
    options: Callable[[argparse.Namespace], dict]
    #: ``across(rows, tolerance) -> problems``: the one cross-row check
    across: Callable[[list[dict], float], list[str]] | None = None


_NO_EVALS = {"evaluations": "produced no evaluations"}
_UNACCOUNTED = {"unaccounted_agents": "{} agent(s) whose records differ "
                                      "from the ones the event stream "
                                      "rebuilds"}

SCENARIOS: dict[str, Scenario] = {
    "faults": Scenario(
        _fault_cell, ("a3c",),
        zero={"failed_agents": "{} agent(s) lost", **_UNACCOUNTED},
        fire=_NO_EVALS, across=_reward_drop,
        columns=("evaluations", "best_reward", "failed_evals",
                 "failed_agents", "node_failures", "job_restarts",
                 "mean_utilization", "unaccounted_agents"),
        options=lambda a: {"minutes": a.minutes, "seed": a.seed}),
    "numeric": Scenario(
        _numeric_cell, ("a3c", "a2c"),
        zero={"failed_agents": "{} agent(s) permanently lost below the "
                               "restart cap", **_UNACCOUNTED},
        fire={**_NO_EVALS,
              "finite_best": "best reward not finite",
              "numeric_faults": "no numeric faults fired — the profile "
                                "tested nothing",
              "rollbacks": "guards never rolled a policy back",
              "restarts": "no agent was resurrected"},
        columns=("evaluations", "best_reward", "numeric_faults",
                 "rollbacks", "restarts", "rejected_deltas",
                 "failed_agents", "unaccounted_agents"),
        options=lambda a: {"minutes": a.minutes, "seed": a.seed}),
    "proc": Scenario(
        _proc_cell, ("a3c",),
        zero={"failed_agents": "{} agent(s) lost", **_UNACCOUNTED},
        fire={**_NO_EVALS,
              "worker_faults": "no worker was ever killed — the profile "
                               "tested nothing",
              "respawns": "no worker was respawned",
              "quarantined": "no architecture was quarantined",
              "events_ok": "WORKER_*/QUARANTINE events missing from the "
                           "stream"},
        columns=("evaluations", "best_reward", "external_kills",
                 "worker_crashes", "worker_timeouts", "respawns",
                 "quarantined", "inline_evals", "unaccounted_agents"),
        options=lambda a: {"seed": a.seed}),
    "crashpoint": Scenario(
        _crashpoint_cell, ("a3c", "a2c", "rdm"),
        zero={"fingerprint_mismatches": "{} resumed run(s) diverged from "
                                        "the uninterrupted fingerprint",
              "reevaluations": "{} journaled evaluation(s) were "
                               "re-executed after resume",
              "direct_reexec": "reward model re-invoked {} time(s) beyond "
                               "the journal deficit",
              "replay_leftover": "{} armed replay entr(y/ies) never "
                                 "consumed", **_UNACCOUNTED},
        fire={"kills_landed": "no SIGKILL landed — every child finished "
                              "first, the profile tested nothing"},
        across=_replay_loaded,
        columns=("journal_records", "baseline_evals", "kills_landed",
                 "replay_loaded", "fingerprint_mismatches",
                 "reevaluations", "replay_leftover", "unaccounted_agents"),
        # the fuzzer's cells search two seeds above the CLI's --seed
        options=lambda a: {"seed": a.seed + 2, "points": a.points,
                           "backends": tuple(a.backends.split(","))}),
}


def run(profile: str, methods: tuple[str, ...] | None = None,
        **options) -> list[dict]:
    """Every cell of one scenario, method by method (its default methods
    when ``methods`` is None); ``options`` go to each cell."""
    scenario = SCENARIOS[profile]
    return [row for method in methods or scenario.methods
            for row in scenario.cell(method, **options)]


def check(profile: str, rows: list[dict],
          tolerance: float = 0.05) -> list[str]:
    """Every invariant of ``profile``'s scenario over its result rows;
    returns the violations (empty = pass).  ``tolerance`` is the
    allowed fractional best-reward drop of the faults scenario."""
    scenario = SCENARIOS[profile]
    problems = []
    for row in rows:
        problems += [f"{row['level']}: " + message.format(row[column])
                     for column, message in scenario.zero.items()
                     if row[column]]
        problems += [f"{row['level']}: {message}"
                     for column, message in scenario.fire.items()
                     if not row[column]]
    if scenario.across is not None:
        problems += scenario.across(rows, tolerance)
    return problems


def report(rows: list[dict], columns: tuple[str, ...]) -> None:
    """Print ``rows`` as a table of ``level`` plus ``columns``."""
    table = [("level", *columns)] + [
        (row["level"], *(f"{row[c]:.4f}" if isinstance(row[c], float)
                         else str(row[c]) for c in columns))
        for row in rows]
    widths = [max(map(len, cells)) for cells in zip(*table)]
    for level, *cells in table:
        print(level.ljust(widths[0]),
              *(cell.rjust(w) for cell, w in zip(cells, widths[1:])))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-chaos", description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--profile", default="faults",
                        choices=(*SCENARIOS, "all"),
                        help="scenario to run, or all of them in table "
                             "order (default faults)")
    defaults = ", ".join(f"{name} {','.join(scenario.methods)}"
                         for name, scenario in SCENARIOS.items())
    parser.add_argument("--methods", type=lambda t: tuple(t.split(",")),
                        help="comma-separated search methods every "
                             f"scenario runs (default {defaults})")
    parser.add_argument("--minutes", type=float, default=45.0,
                        help="virtual wall time per faults/numeric run "
                             "(default 45)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed best-reward degradation vs "
                             "fault-free, as a fraction (default 0.05)")
    parser.add_argument("--points", type=int, default=3,
                        help="kill points per crashpoint cell (default 3)")
    parser.add_argument("--backends", default="serial,thread,process",
                        help="comma-separated backends for the "
                             "crashpoint profile "
                             "(default serial,thread,process)")
    args = parser.parse_args(argv)

    problems: list[str] = []
    for name in (SCENARIOS if args.profile == "all" else (args.profile,)):
        scenario = SCENARIOS[name]
        rows = run(name, args.methods, **scenario.options(args))
        report(rows, scenario.columns)
        problems += check(name, rows, tolerance=args.tolerance)
    for problem in problems:
        print(f"chaos: FAIL — {problem}")
    if not problems:
        print("chaos: all profiles within tolerance")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
