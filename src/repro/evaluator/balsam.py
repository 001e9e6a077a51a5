"""Simulated Balsam workflow service (§4, Fig. 3).

The real deployment runs a Balsam service (Django + PostgreSQL) on a
dedicated node; agents submit reward-estimation tasks through the
Evaluator API, and a pilot-job *launcher* continually dispatches queued
tasks onto idle worker nodes.

Here the service is a job database over the discrete-event kernel.  Each
submitted job becomes a pilot process: it waits (FIFO) for a worker node
from the shared :class:`~repro.hpc.cluster.Cluster`, holds it for the
modelled task duration, then releases it and fires its completion event.
A small submission latency models the database round trip.

Cache hits complete instantly without touching the cluster — agents keep
agent-local caches (§4) — which is what drives the utilization decay as
a search converges.

Fault tolerance mirrors the real Balsam job lifecycle.  A job whose
attempt crashes (task death) or whose node fails under it (preemption
``Interrupt``) enters ``RUN_ERROR``; with retries remaining it becomes
``RESTART_ENABLED`` and re-queues after an exponential backoff (5, 10
and 20 virtual seconds); after three restarts it is ``FAILED`` and its
completion event still fires — the evaluator surfaces the paper's
failure reward (−1) instead of hanging the agent's batch barrier.  A job abandoned by
its batch deadline is ``RUN_TIMEOUT``.  With no
:class:`~repro.hpc.faults.FaultInjector` configured, none of these
paths execute and behavior is identical to the failure-free service.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..events import EventSink
from ..hpc.cluster import Cluster
from ..hpc.faults import FaultInjector
from ..hpc.sim import AllOf, Event, Interrupt, Process, Simulator, Timeout
from ..nas.arch import Architecture
from ..rewards.base import EvalResult, RewardModel
from .base import Evaluator

__all__ = ["BalsamJob", "BalsamService", "BalsamEvaluator"]

#: terminal job states whose reward is surfaced as FAILURE_REWARD
_FAILURE_STATES = ("FAILED", "RUN_TIMEOUT")
#: restart policy: a job that failed this many restarts is FAILED, and
#: restart k waits _RETRY_BACKOFF * 2**(k-1) virtual seconds first
_MAX_RETRIES = 3
_RETRY_BACKOFF = 5.0


@dataclass
class BalsamJob:
    """One row of the job database.

    State machine (matching Balsam's lifecycle)::

        CREATED -> RUNNING -> FINISHED
                      |-> RUN_ERROR -> RESTART_ENABLED -> RUNNING ...
                      |                       `-> FAILED (retries gone)
                      `-> RUN_TIMEOUT (abandoned by its batch deadline)
    """

    job_id: int
    agent_id: int
    arch: Architecture
    result: EvalResult
    submit_time: float
    start_time: float = -1.0
    end_time: float = -1.0
    state: str = "CREATED"
    done: Event | None = field(default=None, repr=False)
    num_retries: int = 0
    attempts: int = 0
    error: str = ""
    proc: Process | None = field(default=None, repr=False)
    #: (start, end) of every completed or preempted run attempt
    run_log: list = field(default_factory=list, repr=False)

    @property
    def failed(self) -> bool:
        return self.state in _FAILURE_STATES


class BalsamService:
    """Shared job database + launcher over one cluster.

    ``faults`` plugs in a :class:`~repro.hpc.faults.FaultInjector`
    (node failures are injected into the cluster separately via
    ``injector.attach``); without one the service is fault-free.
    """

    def __init__(self, sim: Simulator, cluster: Cluster,
                 submit_latency: float = 0.5,
                 faults: FaultInjector | None = None) -> None:
        self.sim = sim
        self.cluster = cluster
        self.submit_latency = submit_latency
        self.faults = faults
        self.jobs: list[BalsamJob] = []

    def submit(self, agent_id: int, arch: Architecture,
               result: EvalResult) -> BalsamJob:
        """Create a job and spawn its pilot process; returns the job, whose
        ``done`` event fires at completion."""
        job = BalsamJob(len(self.jobs), agent_id, arch, result,
                        self.sim.now, done=self.sim.event())
        self.jobs.append(job)
        job.proc = self.sim.process(self._pilot(job), name=f"job{job.job_id}")
        return job

    def _pilot(self, job: BalsamJob):
        """A job's life: the submission round trip, then run attempts
        until one finishes, the batch deadline abandons the job, or its
        restarts run out."""
        yield Timeout(self.submit_latency)
        while True:
            job.attempts += 1
            if self.faults is not None:
                # service outage: the launcher cannot dispatch until the
                # window ends
                stall = self.faults.outage_delay(self.sim.now)
                if stall > 0.0:
                    yield Timeout(stall)
            if (yield from self._attempt(job)):
                return
            if job.num_retries >= _MAX_RETRIES:
                job.state = "FAILED"
                job.end_time = self.sim.now
                job.done.succeed(job)
                return
            job.num_retries += 1
            job.state = "RESTART_ENABLED"
            yield Timeout(_RETRY_BACKOFF * 2.0 ** (job.num_retries - 1))

    def _attempt(self, job: BalsamJob):
        """One attempt: lease a node, run the (possibly faulted) task,
        give the node back.  Returns True when the pilot is done
        (finished, or abandoned by its batch deadline) and False after a
        ``RUN_ERROR`` the restart policy may retry."""
        fault = (self.faults.job_fault(job.job_id, job.attempts)
                 if self.faults is not None else None)
        try:
            yield self.cluster.acquire(holder=job.proc)
            if job.failed:
                # batch deadline expired while queued; give the node back
                self.cluster.release(holder=job.proc)
                return True
            job.state = "RUNNING"
            job.start_time = self.sim.now
            duration = job.result.duration
            if fault is not None:
                duration *= fault.slowdown
            # a crashing task dies partway through; the node survives
            crashes = fault is not None and fault.crashes
            yield Timeout(duration * fault.crash_frac if crashes
                          else duration)
            job.run_log.append((job.start_time, self.sim.now))
            if crashes:
                self.faults.num_job_crashes += 1
                job.start_time = -1.0
            self.cluster.release(holder=job.proc)
            if job.failed:
                return True          # abandoned mid-run by its deadline
            if crashes:
                job.state = "RUN_ERROR"
                job.error = "task crashed"
                return False
            job.state = "FINISHED"
            job.end_time = self.sim.now
            job.done.succeed(job)
            return True
        except Interrupt as intr:
            # the node died under us: the lease is already revoked,
            # so there is nothing to release.  start_time >= 0 only
            # while the current attempt is actually running (it is
            # reset whenever an attempt ends), so a pilot preempted
            # between lease grant and resume logs no bogus interval
            if job.start_time >= 0:
                job.run_log.append((job.start_time, self.sim.now))
                job.start_time = -1.0
            if job.failed:
                return True          # deadline had already abandoned it
            job.state = "RUN_ERROR"
            job.error = f"node failure ({intr.cause})"
            return False

    @property
    def num_finished(self) -> int:
        return sum(1 for j in self.jobs if j.state == "FINISHED")

    @property
    def num_failed(self) -> int:
        return sum(1 for j in self.jobs if j.failed)

    @property
    def num_restarts(self) -> int:
        return sum(j.num_retries for j in self.jobs)


class BalsamEvaluator(Evaluator):
    """Per-agent evaluator backed by the shared Balsam service.

    ``add_eval_batch`` returns an event that fires when the whole batch
    has finished — the per-agent batch synchronization the paper notes
    ("the estimation of M rewards per agent was blocking").

    ``batch_deadline`` bounds that barrier: any job still unfinished
    that many virtual seconds after submission is abandoned
    (``RUN_TIMEOUT``) and surfaced with ``FAILURE_REWARD``, so a lost
    job can never hang the agent.  ``None`` (default) waits forever,
    which is safe whenever a fault-free service is used.

    Everything but job submission and the finisher/watchdog processes
    lives in :class:`~repro.evaluator.base.Evaluator`, with the
    simulator as its clock.  The reward model runs at submission, to
    learn the job's modelled duration; when it raises, the failure
    record is delivered at submit time and no job is submitted, and a
    batch of only such rejections completes after ``submit_latency``.
    """

    def __init__(self, service: BalsamService, reward_model: RewardModel,
                 agent_id: int, use_cache: bool = True,
                 batch_deadline: float | None = None,
                 sink: EventSink | None = None) -> None:
        super().__init__(reward_model, agent_id=agent_id,
                         use_cache=use_cache,
                         clock=lambda: service.sim.now, sink=sink)
        if batch_deadline is not None and batch_deadline <= 0:
            raise ValueError("batch_deadline must be positive")
        self.service = service
        self.batch_deadline = batch_deadline
        #: submissions of the current batch rejected at submit time
        self._rejected = 0

    def _start(self, arch: Architecture,
               submit_time: float) -> BalsamJob | None:
        result = self._evaluate(arch)
        if result is None:
            self._deliver(arch, None, submit_time)
            self._rejected += 1
            return None
        return self.service.submit(self.agent_id, arch, result)

    def _end_batch(self, jobs: list[BalsamJob]) -> Event:
        sim = self.service.sim
        rejected, self._rejected = self._rejected, 0
        if not jobs and rejected:
            # every submission was rejected: the batch still costs the
            # launcher's round trip, so a reward model that always
            # raises cannot stall the virtual clock of a search bounded
            # only by its wall time
            return sim.timeout_event(self.service.submit_latency)
        batch_done = sim.event()
        if not jobs:
            # empty or fully cached batch: nothing to wait for — succeed
            # immediately instead of spawning a finisher over AllOf([])
            batch_done.succeed()
            return batch_done

        def finisher():
            done_jobs = yield AllOf([job.done for job in jobs])
            for job in done_jobs:
                if job.failed:
                    # retries exhausted or batch deadline hit: surface
                    # the paper's failure reward
                    start = (job.start_time if job.start_time >= 0
                             else job.submit_time)
                    self._deliver(job.arch, job.result, job.submit_time,
                                  start, failed=True)
                    continue
                self._deliver(job.arch, job.result, job.submit_time,
                              job.start_time, job.end_time)
            batch_done.succeed()

        sim.process(finisher(), name=f"agent{self.agent_id}.batch")

        if self.batch_deadline is not None:
            def watchdog():
                yield Timeout(self.batch_deadline)
                for job in jobs:
                    if not job.done.triggered:
                        job.state = "RUN_TIMEOUT"
                        job.error = "batch deadline exceeded"
                        job.end_time = sim.now
                        job.done.succeed(job)

            sim.process(watchdog(), name=f"agent{self.agent_id}.deadline")
        return batch_done
