"""Deterministic fault injection for the simulated HPC substrate.

The paper's headline claim is scalability, and it leans on Balsam
precisely because the workflow service "tracks job states and restarts
failed tasks" while the agents keep searching.  A faithful reproduction
therefore needs a cluster where nodes *can* die: this module drives

* **node failures and repairs** — per-node MTBF-exponential failures
  that preempt the running pilot job (via the kernel's ``Interrupt``)
  and shrink cluster capacity until an exponential repair completes;
* **per-job crashes** — a seeded per-(job, attempt) crash probability,
  modelling segfaulting training tasks;
* **stragglers** — a per-(job, attempt) probability of running at a
  slowdown multiple of the modelled duration;
* **service outage windows** — intervals during which the Balsam
  service is unreachable and job submissions stall.

Everything is driven by seeded, *stream-separated* RNGs: node events
draw from one stream, and each (job, attempt) derives its own generator
from ``(seed, job_id, attempt)``, so fault decisions are independent of
the order in which jobs happen to be submitted.  Two runs with the same
seed see exactly the same fault schedule.

When no :class:`FaultConfig` is supplied anywhere, the fault layer is
fully inert: the cluster, service, and search behave bit-identically to
a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import Interrupt, Process, Simulator, Timeout

__all__ = ["FaultConfig", "JobFault", "NumericFault", "FaultInjector"]

# RNG stream tags: keep node-event, per-job and numeric draws independent
_NODE_STREAM = 0xFA01
_JOB_STREAM = 0xFA02
_NUMERIC_STREAM = 0xFA03

#: slowdown multiplier of a straggler attempt
_STRAGGLER_FACTOR = 3.0
#: node failures never take the in-service capacity below this
_MIN_WORKER_NODES = 1


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the fault model.  All rates default to zero (inert).

    Parameters
    ----------
    node_mtbf:
        Mean time between failures of a single worker node, in virtual
        seconds (exponential).  ``0`` disables node failures.  Node
        failures never take the in-service capacity below one node.
    node_repair_time:
        Mean repair time of a failed node, in virtual seconds
        (exponential).
    job_crash_prob:
        Probability that one attempt of a job crashes partway through
        its run (the task dies; the node survives).
    straggler_prob:
        Probability that one attempt runs three times slower than
        modelled.
    outages:
        ``(start, end)`` windows of virtual time during which the
        workflow service is unreachable and submissions stall.
    nan_grad_prob:
        Probability that one (agent, iteration) PPO update is poisoned
        with NaNs — modelling a hardware bit-flip or fused-kernel bug
        corrupting a gradient buffer.
    exploding_loss_prob:
        Probability that one (agent, iteration) update direction is
        scaled by 10⁶ — a diverged local policy.
    corrupt_delta_prob:
        Probability that the copy of the delta *sent to the parameter
        server* for one (agent, iteration) is corrupted in flight; the
        local update stays healthy.
    seed:
        Seeds every fault decision; same seed, same fault schedule.
    """

    node_mtbf: float = 0.0
    node_repair_time: float = 300.0
    job_crash_prob: float = 0.0
    straggler_prob: float = 0.0
    outages: tuple[tuple[float, float], ...] = ()
    nan_grad_prob: float = 0.0
    exploding_loss_prob: float = 0.0
    corrupt_delta_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_mtbf < 0 or self.node_repair_time <= 0:
            raise ValueError("node_mtbf must be >= 0 and repair time > 0")
        for p in (self.job_crash_prob, self.straggler_prob,
                  self.nan_grad_prob, self.exploding_loss_prob,
                  self.corrupt_delta_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        for start, end in self.outages:
            if end <= start or start < 0:
                raise ValueError(f"bad outage window ({start}, {end})")

    @property
    def numeric_enabled(self) -> bool:
        """Any numerical fault (repro.health's chaos counterpart) armed?"""
        return (self.nan_grad_prob > 0 or self.exploding_loss_prob > 0
                or self.corrupt_delta_prob > 0)

    @property
    def enabled(self) -> bool:
        return (self.node_mtbf > 0 or self.job_crash_prob > 0
                or self.straggler_prob > 0 or bool(self.outages)
                or self.numeric_enabled)


@dataclass(frozen=True)
class JobFault:
    """Fault decisions for one attempt of one job."""

    crashes: bool = False
    crash_frac: float = 0.5      # fraction of the run completed at crash
    slowdown: float = 1.0


@dataclass(frozen=True)
class NumericFault:
    """Numerical fault decisions for one (agent, iteration).

    At most one kind fires per iteration (they model distinct root
    causes); ``none`` is True when the iteration is healthy.
    """

    nan_grad: bool = False
    exploding_loss: bool = False
    corrupt_delta: bool = False

    @property
    def none(self) -> bool:
        return not (self.nan_grad or self.exploding_loss
                    or self.corrupt_delta)


class FaultInjector:
    """Drives the fault schedule of one simulation.

    Construct with a :class:`FaultConfig`, then :meth:`attach` a cluster
    to start the node failure/repair process.  Per-job decisions are
    pure functions of ``(seed, job_id, attempt)`` and can be queried by
    the Balsam service at any time.
    """

    def __init__(self, sim: Simulator, config: FaultConfig) -> None:
        self.sim = sim
        self.config = config
        self._node_rng = np.random.default_rng(
            (config.seed, _NODE_STREAM))
        self._procs: list[Process] = []
        self._stopped = False
        self.num_node_failures = 0
        self.num_node_repairs = 0
        self.num_job_crashes = 0
        self.num_numeric_faults = 0

    # -- node failures -------------------------------------------------
    def attach(self, cluster) -> None:
        """Start injecting node failures into ``cluster``."""
        if self.config.node_mtbf > 0:
            self._procs.append(self.sim.process(
                self._node_faults(cluster), name="fault.nodes"))

    def _node_faults(self, cluster):
        cfg = self.config
        rng = self._node_rng
        try:
            while True:
                up = cluster.worker_nodes
                if up <= _MIN_WORKER_NODES:
                    # everything that can fail has; wait out a repair
                    yield Timeout(cfg.node_repair_time)
                    continue
                # aggregate failure rate of `up` independent nodes
                yield Timeout(rng.exponential(cfg.node_mtbf / up))
                if cluster.worker_nodes <= _MIN_WORKER_NODES:
                    continue
                # the failed node is uniform over in-service nodes: it
                # preempts a pilot with probability busy/capacity.  After
                # an idle-kill, surplus leases can outnumber worker_nodes,
                # so draw over whichever is larger or some running pilots
                # would be unreachable by preemption
                holders = cluster.holders
                capacity = max(cluster.worker_nodes, len(holders))
                idx = int(rng.integers(0, capacity))
                victim = holders[idx] if idx < len(holders) else None
                if cluster.fail_node(victim):
                    self.num_node_failures += 1
                    delay = rng.exponential(cfg.node_repair_time)
                    self._procs.append(self.sim.process(
                        self._repair(cluster, delay), name="fault.repair"))
        except Interrupt:
            return

    def _repair(self, cluster, delay: float):
        try:
            yield Timeout(delay)
        except Interrupt:
            pass  # injector stopped: repair immediately so counts balance
        cluster.repair_node()
        self.num_node_repairs += 1

    def stop(self) -> None:
        """Interrupt all injector processes (search finished)."""
        self._stopped = True
        for proc in self._procs:
            proc.interrupt("injector stopped")

    # -- per-job faults ------------------------------------------------
    def job_fault(self, job_id: int, attempt: int) -> JobFault | None:
        """Fault decisions for attempt ``attempt`` of job ``job_id``.

        A pure function of ``(seed, job_id, attempt)``, independent of
        submission order and safe to query repeatedly — the caller that
        actually takes the crash path bumps :attr:`num_job_crashes`.
        Returns ``None`` when job-level faults are disabled.
        """
        cfg = self.config
        if cfg.job_crash_prob <= 0 and cfg.straggler_prob <= 0:
            return None
        rng = np.random.default_rng(
            (cfg.seed, _JOB_STREAM, job_id, attempt))
        crashes = bool(rng.random() < cfg.job_crash_prob)
        crash_frac = float(rng.uniform(0.05, 0.95))
        slowdown = (_STRAGGLER_FACTOR
                    if rng.random() < cfg.straggler_prob else 1.0)
        return JobFault(crashes, crash_frac, slowdown)

    # -- numerical faults ----------------------------------------------
    def numeric_fault(self, agent_id: int, iteration: int,
                      attempt: int = 0) -> NumericFault | None:
        """Numerical fault decisions for one agent iteration.

        A pure function of ``(seed, agent_id, iteration, attempt)`` on
        its own RNG stream — independent of per-job and node draws, of
        agent scheduling order, and of how many times it is queried.
        ``attempt`` is the agent's lifetime number (restarts so far):
        these faults model *transient* corruption, so a resurrected
        agent replaying the same iteration draws fresh — a permanent
        same-draw fault would deterministically kill every restart.
        The caller that applies a fault bumps :attr:`num_numeric_faults`.
        Returns ``None`` when numerical faults are disabled.
        """
        cfg = self.config
        if not cfg.numeric_enabled:
            return None
        rng = np.random.default_rng(
            (cfg.seed, _NUMERIC_STREAM, agent_id, iteration, attempt))
        draw = float(rng.random())
        # one draw, disjoint intervals: at most one fault kind fires
        if draw < cfg.nan_grad_prob:
            return NumericFault(nan_grad=True)
        draw -= cfg.nan_grad_prob
        if draw < cfg.exploding_loss_prob:
            return NumericFault(exploding_loss=True)
        draw -= cfg.exploding_loss_prob
        if draw < cfg.corrupt_delta_prob:
            return NumericFault(corrupt_delta=True)
        return NumericFault()

    # -- service outages ------------------------------------------------
    def outage_delay(self, now: float) -> float:
        """Seconds until the service is reachable again (0 if up)."""
        for start, end in self.config.outages:
            if start <= now < end:
                return end - now
        return 0.0
