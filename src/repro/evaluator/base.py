"""Evaluator API (§4): the one evaluation front-end.

The paper's evaluator exposes a three-function interface that "enforces a
complete separation of concerns between the search and the backend":

* ``add_eval_batch(architectures)`` — submit reward-estimation tasks;
* ``get_finished_evals()`` — non-blocking fetch of newly completed
  estimations;
* the evaluation cache — agent-local, so repeated architectures return
  their previous reward without consuming worker nodes.

:class:`Evaluator` implements that interface once, for every backend.
It owns the submit loop (journal replay, then cache, then the backend),
the agent-local :class:`~repro.evaluator.cache.EvalCache`, the
submission/hit/failure counters, the one guarded reward call, the
finished-record queue and the ``eval-done`` record, and it emits the
structured event stream (``submit``, ``batch-stats``, ``cache-hit``,
``eval-done``) to an optional :mod:`repro.events` sink.  A backend —
in-process serial evaluation (laptop), a thread pool, a supervised
process pool, or the simulated Balsam service (leadership-class runs) —
supplies only ``_start`` and, where it needs them, ``_end_batch`` and
the ``_poll`` pump, so a single search code runs on any of them.

When the reward model carries a shared
:class:`~repro.nas.plancache.PlanCache`, each batch is first *gathered*
against it: every distinct architecture's plan is compiled once, up
front, and the gather's hit/miss/isomorphism statistics are emitted as
a ``batch-stats`` event.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass

from ..events import BATCH_STATS, CACHE_HIT, EVAL_DONE, SUBMIT, EventSink, emit
from ..nas.arch import Architecture
from ..rewards.base import EvalResult, RewardModel
from .cache import EvalCache

__all__ = ["EvalRecord", "Evaluator", "ReplayEval"]

_log = logging.getLogger("repro.evaluator")


@dataclass(frozen=True)
class EvalRecord:
    """A finished reward estimation, as returned by ``get_finished_evals``."""

    arch: Architecture
    result: EvalResult
    agent_id: int
    submit_time: float
    start_time: float
    end_time: float
    cached: bool = False

    @property
    def reward(self) -> float:
        return self.result.reward


@dataclass(frozen=True)
class ReplayEval:
    """One journaled completed evaluation, ready to be re-served.

    Built from the write-ahead journal's ``eval-done`` records
    (:func:`repro.search.journal.build_replay`) and loaded into an
    evaluator via :meth:`Evaluator.load_replay`: when the resumed search
    re-submits the same architecture, the evaluator answers from this
    entry — same reward, same recorded completion time, *not* a cache
    hit — instead of re-executing the reward model.  Failures replay as
    failures (``FAILURE_REWARD``, never cached), exactly like the
    original run.
    """

    key: tuple                  # the architecture's ``Architecture.key``
    reward: float
    duration: float
    params: int
    timed_out: bool
    failed: bool
    end_time: float             # the original completion timestamp


class Evaluator:
    """The evaluation front-end; see the module docstring for the contract.

    ``num_failed`` counts evaluations that could not produce a real
    reward — a reward-model exception, a job whose retries were
    exhausted, or a batch-deadline abandonment.  They surface as
    ``FAILURE_REWARD`` records rather than raising into the search
    loop, so the stat is the only trace the caller sees.
    """

    #: warm the reward model's plan cache before each batch (the
    #: batched gather); compiled plans cannot cross the process
    #: boundary, so the process backend turns it off
    gathers_plans = True

    def __init__(self, reward_model: RewardModel, agent_id: int = 0,
                 use_cache: bool = True, clock=time.monotonic,
                 sink: EventSink | None = None) -> None:
        self.reward_model = reward_model
        self.agent_id = agent_id
        self.cache = EvalCache() if use_cache else None
        self.clock = clock
        self.sink = sink
        self.num_submitted = 0
        self.num_cache_hits = 0
        self.num_failed = 0
        #: True iff the most recent non-empty batch was answered
        #: entirely from the cache (drives convergence detection, §5.1)
        self.last_batch_all_cached = False
        self._finished: list[EvalRecord] = []
        #: journal-replay store: arch key -> FIFO of completed evals the
        #: resumed run must re-serve instead of re-executing
        self._replay: dict[tuple, deque[ReplayEval]] = {}

    # -- the submit loop -----------------------------------------------
    def add_eval_batch(self, archs: list[Architecture]):
        """Submit a batch of reward estimations.

        Each architecture is answered from the journal replay, else from
        the cache, else handed to the backend's ``_start``.  Returns
        ``_end_batch``'s value: the Balsam backend's batch-done event,
        ``None`` on the host-time backends.
        """
        self._begin_batch(archs)
        started = []
        all_cached = True
        for arch in archs:
            submit = self.clock()
            self.num_submitted += 1
            if self._replay_hit(arch, submit):
                all_cached = False
            elif not self._cache_hit(arch, submit):
                all_cached = False
                handle = self._start(arch, submit)
                if handle is not None:
                    started.append(handle)
        # an *empty* batch is not all-cached: absence of submissions is
        # no evidence of cache convergence
        self.last_batch_all_cached = all_cached and bool(archs)
        return self._end_batch(started)

    def _start(self, arch: Architecture, submit_time: float):
        """Backend hook: evaluate an architecture that neither the replay
        nor the cache answered, and ``_deliver`` its outcome now or
        later.  It runs inside the submit loop, so a result delivered
        here already answers a duplicate later in the same batch from
        the cache.  A non-``None`` return is passed on to
        ``_end_batch``."""
        raise NotImplementedError

    def _end_batch(self, started: list):
        """Backend hook after the submit loop, given the handles
        ``_start`` returned; its value is ``add_eval_batch``'s."""
        return None

    def _begin_batch(self, archs: list[Architecture]) -> None:
        emit(self.sink, SUBMIT, self.clock(), self.agent_id,
             count=len(archs))
        plan_cache = (getattr(self.reward_model, "plan_cache", None)
                      if self.gathers_plans else None)
        if plan_cache is None or not archs:
            return
        # batched gather: compile each distinct architecture once, up
        # front, so dispatch hits warm plans (prefetch_plan never
        # raises — invalid architectures fail at execution time).
        # Architectures the journal replay will answer are not compiled
        # at all — their results never execute, so a warm plan would be
        # pure waste (the plan hit/miss tallies of a resumed run's
        # batch-stats therefore differ from the original run's; the
        # batch/distinct counts still match).
        distinct = {arch.key: arch for arch in archs}
        before = plan_cache.stats()
        for key, arch in distinct.items():
            if self._replay.get(key):
                continue
            self.reward_model.prefetch_plan(arch)
        after = plan_cache.stats()
        emit(self.sink, BATCH_STATS, self.clock(), self.agent_id,
             batch=len(archs), distinct=len(distinct),
             plan_hits=after["hits"] - before["hits"],
             plan_misses=after["misses"] - before["misses"],
             iso_hits=after["iso_hits"] - before["iso_hits"])

    def _cache_hit(self, arch: Architecture, submit_time: float) -> bool:
        """Cache short-circuit: on a hit, record + count + emit.

        Returns True iff the architecture was answered from the cache
        (the caller skips dispatch).
        """
        if self.cache is None:
            return False
        cached = self.cache.get(arch)
        if cached is None:
            return False
        self.num_cache_hits += 1
        now = self.clock()
        self._finished.append(EvalRecord(
            arch, cached, self.agent_id, submit_time, submit_time, now,
            cached=True))
        if self.sink is not None:   # eval-done's record fields
            emit(self.sink, CACHE_HIT, now, self.agent_id,
                 reward=cached.reward, arch=arch.to_dict(),
                 params=cached.params, duration=cached.duration,
                 timed_out=cached.timed_out)
        return True

    # -- evaluation and delivery ---------------------------------------
    def _evaluate(self, arch: Architecture) -> EvalResult | None:
        """The one guarded reward call, shared by every backend.

        Evaluates with the agent-specific seed (§4: rewards depend on
        the agent's random weight initialization).  An exception
        returns ``None``, which :meth:`_deliver` turns into a failure
        record, so a raising reward model costs the search one failure
        reward and never an agent; the traceback goes to the
        ``repro.evaluator`` debug log.  It touches no evaluator state, so
        a pool thread may run it.
        """
        try:
            return self.reward_model.evaluate(arch, agent_seed=self.agent_id)
        except Exception:   # noqa: BLE001 — delivered as a failure record
            _log.debug("reward model raised on %s", arch, exc_info=True)
            return None

    def _deliver(self, arch: Architecture, result: EvalResult | None,
                 submit_time: float, start_time: float | None = None,
                 end_time: float | None = None, failed: bool = False,
                 replayed: bool = False) -> None:
        """Deliver one finished evaluation: the only place its
        :class:`EvalRecord` and ``eval-done`` payload are built.

        A ``None`` result (the reward call raised, or the backend gave
        up on it) or ``failed`` delivers the paper's ``FAILURE_REWARD``
        with the result's duration and params (zero without one); it
        counts in ``num_failed`` and is never cached, so the same
        architecture may be re-attempted later.  A real result is
        cached.  ``start_time`` defaults to the submission and
        ``end_time`` to now.

        The payload is the wire format the journal's ``build_replay``
        and ``read_records`` read back: the architecture, the full result
        tuple and, as the event time, the completion timestamp.  A
        replayed completion also carries ``replayed=True``, which
        ``build_replay`` skips and ``read_records`` counts.
        """
        start_time = submit_time if start_time is None else start_time
        end_time = self.clock() if end_time is None else end_time
        if result is None or failed:
            failed = True
            self.num_failed += 1
            cost = ((0.0, 0) if result is None
                    else (result.duration, result.params))
            result = EvalResult(RewardModel.FAILURE_REWARD, *cost)
        elif self.cache is not None:
            self.cache.put(arch, result)
        self._finished.append(EvalRecord(
            arch, result, self.agent_id, submit_time, start_time, end_time))
        if self.sink is None:
            return
        payload = dict(reward=result.reward, failed=failed,
                       arch=arch.to_dict(), duration=result.duration,
                       params=result.params, timed_out=result.timed_out)
        if replayed:
            payload["replayed"] = True
        emit(self.sink, EVAL_DONE, end_time, self.agent_id, **payload)

    # -- journal replay ------------------------------------------------
    def load_replay(self, entries: list[ReplayEval]) -> None:
        """Arm the evaluator with journaled completions to re-serve.

        Entries queue FIFO per architecture key, preserving per-key
        completion order — a batch containing the same architecture
        twice (both executed for real in the original run, because the
        second submission raced the first's completion) replays both
        entries in order.
        """
        for entry in entries:
            self._replay.setdefault(tuple(entry.key),
                                    deque()).append(entry)

    def replay_pending(self) -> int:
        """Loaded replay entries not yet consumed (0 after a clean
        resume: determinism re-submits every journaled architecture)."""
        return sum(len(q) for q in self._replay.values())

    def _replay_hit(self, arch: Architecture, submit_time: float) -> bool:
        """Journal-replay short-circuit, checked *before* the cache.

        Order matters: the original run consulted its cache first and
        executed on a miss, so every replay entry corresponds to a
        miss.  Re-checking the cache first would diverge on batches
        containing the same architecture twice — the first replay seeds
        the cache and the second occurrence would flip from a real
        (replayed) record to a cache hit.
        """
        if not self._replay:
            return False
        queue = self._replay.get(arch.key)
        if not queue:
            return False
        entry = queue.popleft()
        result = EvalResult(entry.reward, entry.duration, entry.params,
                            entry.timed_out)
        self._deliver(arch, result, submit_time, submit_time,
                      entry.end_time, failed=entry.failed, replayed=True)
        return True

    # -- polling -------------------------------------------------------
    def _poll(self) -> None:
        """Pump pending completions into the finished queue (hook)."""

    def get_finished_evals(self) -> list[EvalRecord]:
        self._poll()
        out, self._finished = self._finished, []
        return out

    # -- checkpoint / resurrection support -----------------------------
    def restore_counters(self, num_submitted: int, num_cache_hits: int,
                         num_failed: int) -> None:
        """Rewind the counters to an iteration boundary."""
        self.num_submitted = num_submitted
        self.num_cache_hits = num_cache_hits
        self.num_failed = num_failed

    # -- uniform lifecycle ---------------------------------------------
    # Backends with nothing in flight inherit these as no-ops, so every
    # evaluator is drop-in interchangeable:
    #     with make_evaluator() as ev:
    #         ev.add_eval_batch(archs); ev.wait_all()
    def wait_all(self, timeout: float | None = None) -> None:
        """Block until every submitted estimation has completed."""

    def shutdown(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
