"""Simulated HPC cluster: node accounting à la Theta allocations.

The paper's runs partition an allocation into agent nodes, worker nodes,
one Balsam service node and unused remainder (e.g. 256 = 21 agents + 231
workers + 1 Balsam + 3 unused).  :class:`NodeAllocation` captures that
arithmetic; :class:`Cluster` tracks worker-node occupancy over virtual
time and produces the utilization traces of Figs. 5/6/9 ("fraction of
allocated compute nodes actively running evaluation tasks").
"""

from __future__ import annotations

from dataclasses import dataclass

from .sim import Event, Process, Simulator

__all__ = ["NodeAllocation", "Cluster"]


@dataclass(frozen=True)
class NodeAllocation:
    """How a job's node count is split (paper §5, footnote 2)."""

    total_nodes: int
    num_agents: int
    workers_per_agent: int
    service_nodes: int = 1

    def __post_init__(self) -> None:
        if self.total_nodes <= 0 or self.num_agents <= 0 \
                or self.workers_per_agent <= 0:
            raise ValueError("node counts must be positive")
        if self.used_nodes > self.total_nodes:
            raise ValueError(
                f"{self.used_nodes} nodes needed but only "
                f"{self.total_nodes} allocated")

    @property
    def worker_nodes(self) -> int:
        return self.num_agents * self.workers_per_agent

    @property
    def used_nodes(self) -> int:
        return self.num_agents + self.worker_nodes + self.service_nodes

    @classmethod
    def paper_256(cls) -> "NodeAllocation":
        """The reference 256-node configuration: 21 agents × 11 workers."""
        return cls(256, 21, 11)

    @classmethod
    def paper_scaling(cls, total_nodes: int, mode: str) -> "NodeAllocation":
        """The §5.3 scaling configurations.

        ``mode="workers"`` fixes 21 agents and grows workers per agent
        (23 at 512, 47 at 1,024); ``mode="agents"`` fixes 11 workers per
        agent and grows agents (42 at 512, 85 at 1,024).
        """
        table = {
            ("workers", 512): cls(512, 21, 23),
            ("workers", 1024): cls(1024, 21, 47),
            ("agents", 512): cls(512, 42, 11),
            ("agents", 1024): cls(1024, 85, 11),
            ("workers", 256): cls.paper_256(),
            ("agents", 256): cls.paper_256(),
        }
        try:
            return table[(mode, total_nodes)]
        except KeyError:
            raise ValueError(
                f"no paper configuration for {total_nodes} nodes / "
                f"{mode!r} scaling") from None


class Cluster:
    """Worker-node pool with occupancy tracking and node failures.

    ``acquire``/``release`` manage single-node leases; waiters queue
    FIFO.  Every occupancy change appends a ``(time, busy)`` sample, so
    utilization can be integrated exactly after the run.

    A lease holder may register its :class:`~repro.hpc.sim.Process` on
    ``acquire`` so that :meth:`fail_node` can preempt it: the failed
    node's pilot receives an ``Interrupt`` and its lease is revoked
    (the pilot must *not* release).  ``fail_node``/``repair_node``
    shrink and grow the in-service capacity; failure events are recorded
    in the utilization samples and in :attr:`fault_events`.  With no
    failures injected, the holder machinery is inert and behavior is
    identical to a failure-free pool.
    """

    def __init__(self, sim: Simulator, worker_nodes: int) -> None:
        if worker_nodes <= 0:
            raise ValueError("worker_nodes must be positive")
        self.sim = sim
        self.worker_nodes = worker_nodes
        #: allocation-time capacity; utilization is normalized by this
        #: fixed denominator even while failures shrink ``worker_nodes``
        self.nominal_worker_nodes = worker_nodes
        self.busy = 0
        self._wait_queue: list[tuple[Event, Process | None]] = []
        self._holders: list[Process] = []
        self.samples: list[tuple[float, int]] = [(0.0, 0)]
        #: (time, "fail" | "repair") log of capacity changes
        self.fault_events: list[tuple[float, str]] = []
        self.num_failures = 0
        self.num_repairs = 0

    @property
    def holders(self) -> tuple[Process, ...]:
        """Processes currently holding a node lease (registered only)."""
        return tuple(self._holders)

    def _record(self) -> None:
        self.samples.append((self.sim.now, self.busy))

    def _grant(self, holder: Process | None) -> None:
        if holder is not None:
            self._holders.append(holder)

    def acquire(self, holder: Process | None = None) -> Event:
        """Yieldable: fires when a node has been granted to the caller.

        ``holder`` (optional) registers the acquiring process for
        preemption by :meth:`fail_node`.
        """
        ev = self.sim.event()
        if self.busy < self.worker_nodes:
            self.busy += 1
            self._grant(holder)
            self._record()
            ev.succeed()
        else:
            self._wait_queue.append((ev, holder))
        return ev

    def release(self, holder: Process | None = None) -> None:
        if self.busy <= 0:
            raise RuntimeError("release without matching acquire")
        if holder is not None:
            try:
                self._holders.remove(holder)
            except ValueError:
                pass
        if self._wait_queue and self.busy <= self.worker_nodes:
            # hand the node directly to the next waiter: occupancy unchanged
            ev, next_holder = self._wait_queue.pop(0)
            self._grant(next_holder)
            ev.succeed()
        else:
            # no waiter — or capacity shrank below occupancy and this
            # lease must be shed rather than handed over
            self.busy -= 1
            self._record()

    # -- failures -------------------------------------------------------
    def fail_node(self, victim: Process | None = None) -> bool:
        """Take one node out of service.

        ``victim``, when given, must be a registered lease holder: its
        lease is revoked and it receives an ``Interrupt`` (the running
        pilot is preempted).  With no victim, an idle node is removed —
        or, if none is idle, capacity simply drops below occupancy and
        the next release sheds the surplus lease.  Returns ``False``
        when capacity is already zero.
        """
        if self.worker_nodes <= 0:
            return False
        self.worker_nodes -= 1
        self.num_failures += 1
        self.fault_events.append((self.sim.now, "fail"))
        if victim is not None:
            try:
                self._holders.remove(victim)
            except ValueError:
                victim = None       # lease already gone; treat as idle kill
            else:
                self.busy -= 1
                victim.interrupt("node_failure")
        self._record()
        return True

    def repair_node(self) -> None:
        """Return one node to service; grant it to the oldest waiter."""
        self.worker_nodes += 1
        self.num_repairs += 1
        self.fault_events.append((self.sim.now, "repair"))
        if self._wait_queue and self.busy < self.worker_nodes:
            ev, holder = self._wait_queue.pop(0)
            self.busy += 1
            self._grant(holder)
            ev.succeed()
        self._record()

    # -- utilization --------------------------------------------------
    def utilization_trace(self, end_time: float, bin_width: float = 1.0
                          ) -> list[tuple[float, float]]:
        """Mean utilization per time bin, as plotted in Figs. 5/6/9."""
        if end_time <= 0:
            raise ValueError("end_time must be positive")
        samples = self.samples + [(end_time, self.busy)]
        trace: list[tuple[float, float]] = []
        idx = 0
        t = 0.0
        busy = 0
        while t < end_time:
            t_next = min(t + bin_width, end_time)
            area = 0.0
            cur = t
            while idx < len(samples) and samples[idx][0] <= t_next:
                st, sb = samples[idx]
                if st > cur:
                    area += busy * (st - cur)
                    cur = st
                busy = sb
                idx += 1
            area += busy * (t_next - cur)
            trace.append((t_next,
                          area / ((t_next - t) * self.nominal_worker_nodes)))
            t = t_next
        return trace

    def mean_utilization(self, end_time: float) -> float:
        """Exact time-averaged utilization over [0, end_time].

        Samples past ``end_time`` (e.g. retries draining after the
        search stopped) are clamped and contribute nothing.
        """
        samples = self.samples + [(end_time, self.busy)]
        area = 0.0
        prev_t, prev_b = samples[0]
        for t, b in samples[1:]:
            t = min(t, end_time)
            if t > prev_t:
                area += prev_b * (t - prev_t)
            prev_t, prev_b = t, b
        return area / (end_time * self.nominal_worker_nodes)
