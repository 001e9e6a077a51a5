"""Supervised multi-process evaluator backend (ROADMAP item 1).

The paper ran reward estimations as real jobs across up to 1,024 Theta
nodes under Balsam, where worker death, hangs, and preemption are the
normal operating regime.  This backend is the real-process end of the
evaluator scale: reward estimations run in a pool of ``spawn``-context
worker processes, and — unlike a bare ``multiprocessing.Pool`` — the
pool is *supervised*:

* **heartbeats** — each worker runs a daemon thread posting liveness
  beats; a worker that stops beating while nominally alive is wedged
  and gets killed like a crash;
* **per-job deadlines** — an evaluation that exceeds
  :attr:`ProcConfig.job_deadline` wall seconds gets its worker
  SIGKILLed and the job retried on another worker after an
  exponential backoff;
* **crash detection + respawn** — a dead worker (segfault, OOM kill,
  external SIGKILL) is detected by liveness polling, its in-flight job
  is retried elsewhere, and a replacement worker is spawned under a
  pool-wide restart budget (:attr:`ProcConfig.max_respawns`);
* **poison-job quarantine** — an architecture that kills
  ``_POISON_THRESHOLD`` (2) *distinct* workers (by crash or deadline)
  is quarantined: it resolves to ``FAILURE_REWARD``
  immediately, a quarantine record is kept, and later submissions of
  the same architecture short-circuit without touching the pool — no
  infinite respawn loop;
* **graceful degradation** — when the respawn budget is exhausted the
  pool shrinks; if it shrinks to nothing, remaining and future jobs run
  in-process serially instead of dying.

Supervision emits typed :mod:`repro.events` records (``worker-spawn``,
``worker-crash``, ``worker-respawn``, ``worker-timeout``,
``quarantine``), and the submit loop, cache, counters and failure
records live in :class:`~repro.evaluator.base.Evaluator`, so the
backend is drop-in interchangeable with serial/thread/Balsam behind the
same front-end: in deterministic mode (no faults, generous deadlines)
its rewards — and therefore search fingerprints — are bit-identical to
the serial backend's, because retries re-run the same pure
``reward_model.evaluate(arch, agent_seed)`` call.

Supervision timing always uses ``time.monotonic`` regardless of the
evaluator's record clock, so a virtual-clock search driving this backend
still enforces real wall-clock deadlines.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_mod
import threading
import time
from collections import deque
from dataclasses import dataclass

from ..events import (QUARANTINE, WORKER_CRASH, WORKER_RESPAWN, WORKER_SPAWN,
                      WORKER_TIMEOUT, EventSink, emit)
from ..nas.arch import Architecture
from ..rewards.base import EvalResult, RewardModel
from .base import Evaluator

__all__ = ["ProcConfig", "ProcessEvaluator"]

# worker -> supervisor message tags
_HB, _START, _DONE, _ERR, _BYE = "hb", "start", "done", "err", "bye"

#: a nominally-alive worker silent this many seconds is wedged -> killed
_HEARTBEAT_TIMEOUT = 30.0
#: retries after a job's first attempt before it fails outright
_MAX_JOB_RETRIES = 2
#: distinct workers one architecture may kill before it is quarantined
#: instead of retried
_POISON_THRESHOLD = 2
#: seconds workers get to exit cleanly at shutdown before SIGKILL
_SHUTDOWN_GRACE = 5.0


@dataclass(frozen=True)
class ProcConfig:
    """Pool sizing and supervision policy of a :class:`ProcessEvaluator`.

    The defaults are tuned for test-scale pools; production runs raise
    ``workers`` toward the launcher's cores-per-node and ``job_deadline``
    toward the reward model's timeout.
    """

    #: worker processes in the pool
    workers: int = 2
    #: seconds between worker heartbeat posts
    heartbeat_interval: float = 0.25
    #: wall seconds one evaluation may run before its worker is killed
    #: and the job retried elsewhere (None = no deadline)
    job_deadline: float | None = 60.0
    #: base of the exponential retry backoff (wall seconds): retry k
    #: waits retry_backoff * 2**(k-1)
    retry_backoff: float = 0.05
    #: pool-wide budget of replacement workers; once spent, the pool
    #: shrinks on every further death (graceful degradation)
    max_respawns: int = 8

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.job_deadline is not None and self.job_deadline <= 0:
            raise ValueError("job_deadline must be positive")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")


def _worker_main(worker_id: int, task_q, result_q, payload: bytes,
                 hb_interval: float) -> None:
    """Worker-process entry point (module-level so spawn can import it).

    Receives ``(job_id, arch_dict, agent_seed)`` tuples, posts
    ``(tag, worker_id, body)`` messages back.  A daemon heartbeat thread
    beats every ``hb_interval`` — a pure-Python hang (e.g. an eval stuck
    in ``time.sleep``) keeps beating, which is exactly why hang
    detection is the *deadline's* job while heartbeats detect death and
    wedged interpreters.
    """
    reward_model: RewardModel = pickle.loads(payload)
    stop = threading.Event()

    def _beat() -> None:
        while not stop.is_set():
            try:
                result_q.put((_HB, worker_id, None))
            except Exception:   # noqa: BLE001 — queue torn down; stop quietly
                return
            stop.wait(hb_interval)

    threading.Thread(target=_beat, daemon=True).start()
    while True:
        item = task_q.get()
        if item is None:            # shutdown sentinel
            break
        job_id, arch_dict, agent_seed = item
        result_q.put((_START, worker_id, job_id))
        try:
            arch = Architecture.from_dict(arch_dict)
            res = reward_model.evaluate(arch, agent_seed=agent_seed)
            result_q.put((_DONE, worker_id,
                          (job_id, (res.reward, res.duration, res.params,
                                    res.timed_out))))
        except Exception as exc:    # noqa: BLE001 — surfaced as failure record
            try:
                result_q.put((_ERR, worker_id,
                              (job_id, f"{type(exc).__name__}: {exc}")))
            except Exception:       # noqa: BLE001 — dying anyway
                break
    stop.set()
    try:
        result_q.put((_BYE, worker_id, None))
    except Exception:               # noqa: BLE001 — queue already gone
        pass


class _Worker:
    """Supervisor-side handle of one worker incarnation."""

    __slots__ = ("wid", "proc", "task_q", "last_hb", "job", "job_start")

    def __init__(self, wid, proc, task_q, now) -> None:
        self.wid = wid              # incarnation id, never reused
        self.proc = proc
        self.task_q = task_q
        self.last_hb = now
        self.job: _Job | None = None
        self.job_start: float | None = None


class _Job:
    """One reward estimation moving through the supervised pool."""

    __slots__ = ("job_id", "arch", "submit_time", "attempts", "ready_at",
                 "state")

    def __init__(self, job_id: int, arch: Architecture,
                 submit_time: float) -> None:
        self.job_id = job_id
        self.arch = arch
        self.submit_time = submit_time
        self.attempts = 0
        self.ready_at = 0.0         # monotonic time the next attempt may start
        self.state = "pending"      # pending | inflight | resolved


class ProcessEvaluator(Evaluator):
    """Evaluator backend over a supervised pool of worker processes."""

    #: compiled plans cannot cross the process boundary, so a
    #: parent-side batch gather would only waste work
    gathers_plans = False

    def __init__(self, reward_model: RewardModel, agent_id: int = 0,
                 config: ProcConfig | None = None, use_cache: bool = True,
                 clock=time.monotonic, sink: EventSink | None = None
                 ) -> None:
        super().__init__(reward_model, agent_id=agent_id,
                         use_cache=use_cache, clock=clock, sink=sink)
        self.proc_config = config or ProcConfig()
        self._ctx = mp.get_context("spawn")
        self._payload = self._pickle_reward_model(reward_model)
        self._result_q = None
        self._workers: dict[int, _Worker] = {}
        self._next_wid = 0
        self._next_job_id = 0
        self._pending: deque[_Job] = deque()
        self._jobs: dict[int, _Job] = {}        # every unresolved job
        #: arch key -> worker incarnations it killed (crash or deadline)
        self._kills_by_arch: dict[tuple, set[int]] = {}
        #: arch key -> quarantine record dict
        self.quarantined: dict[tuple, dict] = {}
        self._respawn_budget = self.proc_config.max_respawns
        #: the pool starts with the first job it must run, so an
        #: evaluator that is built but never used spawns nothing
        self._pool_started = False
        self._stopped = False
        # supervision counters (surfaced via stats())
        self.num_worker_spawns = 0
        self.num_worker_crashes = 0
        self.num_worker_timeouts = 0
        self.num_respawns = 0
        self.num_quarantined = 0
        self.num_inline_evals = 0

    # -- worker pool ---------------------------------------------------
    @staticmethod
    def _pickle_reward_model(reward_model: RewardModel) -> bytes:
        """Pickle the model with any attached plan cache detached —
        compiled plans hold buffer pools that are meaningless (and
        potentially unpicklable) in a fresh process."""
        cache = reward_model.plan_cache
        try:
            reward_model.set_plan_cache(None)
            return pickle.dumps(reward_model)
        finally:
            reward_model.set_plan_cache(cache)

    def _spawn_worker(self, respawn: bool = False) -> _Worker:
        if self._result_q is None:
            self._result_q = self._ctx.Queue()
        wid = self._next_wid
        self._next_wid += 1
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_q, self._result_q, self._payload,
                  self.proc_config.heartbeat_interval),
            daemon=True, name=f"eval-worker-{self.agent_id}-{wid}")
        proc.start()
        worker = _Worker(wid, proc, task_q, time.monotonic())
        self._workers[wid] = worker
        self.num_worker_spawns += 1
        if respawn:
            self.num_respawns += 1
        emit(self.sink, WORKER_RESPAWN if respawn else WORKER_SPAWN,
             self.clock(), self.agent_id, worker=wid, pid=proc.pid)
        return worker

    def _start_pool(self) -> None:
        self._pool_started = True
        for _ in range(self.proc_config.workers):
            self._spawn_worker()

    def worker_pids(self) -> list[int]:
        """PIDs of currently live workers (chaos harness hook; safe to
        call from another thread while the pool respawns)."""
        return [w.proc.pid for w in list(self._workers.values())
                if w.proc.is_alive() and w.proc.pid is not None]

    @property
    def pool_size(self) -> int:
        return len(self._workers)

    def stats(self) -> dict:
        """Supervision counters, aggregated into ``SearchResult``."""
        return {"worker_spawns": self.num_worker_spawns,
                "worker_crashes": self.num_worker_crashes,
                "worker_timeouts": self.num_worker_timeouts,
                "respawns": self.num_respawns,
                "quarantined": self.num_quarantined,
                "inline_evals": self.num_inline_evals}

    # -- submission ----------------------------------------------------
    def _start(self, arch: Architecture, submit_time: float) -> None:
        if arch.key in self.quarantined:
            # known poison: failure reward without touching the pool.
            # The submit loop tries the replay first, so a journaled
            # completion — even a journaled failure of a poison arch —
            # is still re-served as recorded
            self.quarantined[arch.key]["resubmits"] += 1
            self._deliver(arch, None, submit_time)
            return
        if not self._pool_started and not self._stopped:
            self._start_pool()
        job = _Job(self._next_job_id, arch, submit_time)
        self._next_job_id += 1
        self._jobs[job.job_id] = job
        self._pending.append(job)

    def _end_batch(self, started: list) -> None:
        self._pump(0.0)

    # -- polling / lifecycle -------------------------------------------
    def _poll(self) -> None:
        self._pump(0.0)

    def wait_all(self, timeout: float | None = None) -> None:
        """Pump supervision until every job resolved (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._jobs:
            if deadline is not None and time.monotonic() >= deadline:
                return
            self._pump(0.05)

    def shutdown(self) -> None:
        """Tear the pool down (idempotent): sentinel, grace, SIGKILL."""
        if self._stopped:
            return
        self._stopped = True
        for worker in self._workers.values():
            try:
                worker.task_q.put_nowait(None)
            except Exception:   # noqa: BLE001 — worker already gone
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in self._workers.values():
            worker.proc.join(max(0.0, deadline - time.monotonic()))
        for worker in self._workers.values():
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(1.0)
            worker.task_q.close()
        self._workers.clear()
        if self._result_q is not None:
            self._result_q.close()
            # don't let the feeder thread block interpreter exit
            self._result_q.cancel_join_thread()
            self._result_q = None

    # -- quarantine checkpoint support ---------------------------------
    def quarantine_snapshot(self) -> list:
        """JSON-ready ``[space, choices, kills, resubmits]`` rows."""
        return [[space, list(choices), rec["kills"], rec["resubmits"]]
                for (space, choices), rec in self.quarantined.items()]

    def restore_quarantine(self, entries: list) -> None:
        """Rehydrate quarantine records from a checkpoint snapshot."""
        for space, choices, kills, resubmits in entries:
            key = (space, tuple(int(c) for c in choices))
            self.quarantined[key] = {"kills": int(kills),
                                     "resubmits": int(resubmits)}

    # -- the supervision pump ------------------------------------------
    def _pump(self, block: float) -> None:
        """One supervision cycle: drain messages, police workers,
        dispatch ready jobs.  ``block`` bounds how long the first queue
        read may wait; everything after is non-blocking."""
        if self._result_q is not None:
            timeout = block
            while True:
                try:
                    if timeout > 0:
                        msg = self._result_q.get(timeout=timeout)
                    else:
                        msg = self._result_q.get_nowait()
                except (queue_mod.Empty, OSError, ValueError):
                    break
                timeout = 0.0
                self._handle_message(msg)
        self._supervise()
        self._dispatch()

    def _handle_message(self, msg: tuple) -> None:
        tag, wid, body = msg
        worker = self._workers.get(wid)
        if worker is not None:
            worker.last_hb = time.monotonic()
        if tag in (_HB, _BYE):
            return
        if tag == _START:
            if worker is not None and worker.job is not None \
                    and worker.job.job_id == body:
                worker.job_start = time.monotonic()
            return
        job_id = body[0]
        job = self._jobs.get(job_id)
        if job is None or job.state == "resolved":
            return      # stale result: the job was already failed/retried
        if worker is not None and worker.job is job:
            worker.job = None
            worker.job_start = None
        if tag == _DONE:
            reward, duration, params, timed_out = body[1]
            result = EvalResult(float(reward), float(duration), int(params),
                                bool(timed_out))
            self._resolve(job)
            self._deliver(job.arch, result, job.submit_time)
        else:           # _ERR: the reward model raised inside the worker
            self._resolve(job)
            self._deliver(job.arch, None, job.submit_time)

    def _resolve(self, job: _Job) -> None:
        job.state = "resolved"
        self._jobs.pop(job.job_id, None)

    def _supervise(self) -> None:
        """Liveness, heartbeat, and deadline police over the pool."""
        if self._stopped:
            return
        cfg = self.proc_config
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if not worker.proc.is_alive():
                self._on_worker_death(
                    worker, WORKER_CRASH,
                    f"worker died (exitcode {worker.proc.exitcode})")
            elif worker.job is not None and cfg.job_deadline is not None \
                    and worker.job_start is not None \
                    and now - worker.job_start > cfg.job_deadline:
                worker.proc.kill()
                worker.proc.join(1.0)
                self._on_worker_death(
                    worker, WORKER_TIMEOUT,
                    f"job exceeded {cfg.job_deadline:.1f}s deadline")
            elif now - worker.last_hb > _HEARTBEAT_TIMEOUT:
                worker.proc.kill()
                worker.proc.join(1.0)
                self._on_worker_death(worker, WORKER_CRASH,
                                      "heartbeat lost (wedged worker)")

    def _on_worker_death(self, worker: _Worker, kind: str,
                         cause: str) -> None:
        self._workers.pop(worker.wid, None)
        worker.task_q.close()
        if kind == WORKER_TIMEOUT:
            self.num_worker_timeouts += 1
        else:
            self.num_worker_crashes += 1
        emit(self.sink, kind, self.clock(), self.agent_id,
             worker=worker.wid, cause=cause)
        job = worker.job
        if job is not None and job.state == "inflight":
            self._retry_or_quarantine(job, worker.wid)
        # respawn under budget; past it the pool shrinks gracefully
        if not self._stopped and self._respawn_budget > 0:
            self._respawn_budget -= 1
            self._spawn_worker(respawn=True)

    def _retry_or_quarantine(self, job: _Job, killer_wid: int) -> None:
        cfg = self.proc_config
        kills = self._kills_by_arch.setdefault(job.arch.key, set())
        kills.add(killer_wid)
        job.state = "pending"
        if len(kills) >= _POISON_THRESHOLD:
            # poison job: this arch has now killed enough distinct
            # workers; stop feeding it workers forever
            self.quarantined[job.arch.key] = {"kills": len(kills),
                                              "resubmits": 0}
            self.num_quarantined += 1
            emit(self.sink, QUARANTINE, self.clock(), self.agent_id,
                 arch=job.arch.to_dict(), kills=len(kills))
            self._resolve(job)
            self._deliver(job.arch, None, job.submit_time)
            return
        if job.attempts > _MAX_JOB_RETRIES:
            self._resolve(job)
            self._deliver(job.arch, None, job.submit_time)
            return
        job.ready_at = (time.monotonic()
                        + cfg.retry_backoff * 2.0 ** (job.attempts - 1))
        self._pending.append(job)

    def _dispatch(self) -> None:
        if self._stopped:
            return
        now = time.monotonic()
        if not self._workers:
            # graceful degradation: no pool left — remaining jobs run
            # in-process serially rather than the evaluator dying
            while self._pending:
                job = self._pending.popleft()
                if job.state != "pending":
                    continue
                self._run_inline(job)
            return
        idle = [w for w in self._workers.values() if w.job is None]
        deferred: list[_Job] = []
        while idle and self._pending:
            job = self._pending.popleft()
            if job.state != "pending":
                continue
            if job.ready_at > now:      # still backing off
                deferred.append(job)
                continue
            worker = idle.pop(0)
            job.state = "inflight"
            job.attempts += 1
            worker.job = job
            # deadline clock starts at hand-off; the START message
            # refreshes it to the actual execution start
            worker.job_start = now
            worker.task_q.put((job.job_id, job.arch.to_dict(),
                               self.agent_id))
        for job in reversed(deferred):
            self._pending.appendleft(job)

    def _run_inline(self, job: _Job) -> None:
        self.num_inline_evals += 1
        self._resolve(job)
        self._deliver(job.arch, self._evaluate(job.arch), job.submit_time)
