"""Balsam-style performance monitoring (§4).

The paper infers utilization "as the fraction of allocated compute nodes
actively running evaluation tasks at any given time" from Balsam's job
database.  This module reproduces that workflow: it derives utilization,
throughput, and queue-wait statistics *from the job table itself*
(rather than from the cluster's internal occupancy counters), which is
exactly what an external monitoring service can observe.

The cluster-counter and job-table views must agree; the test suite
cross-checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..evaluator.balsam import BalsamJob, BalsamService

__all__ = ["JobTableStats", "utilization_from_jobs", "job_table_stats",
           "throughput_trace"]


@dataclass(frozen=True)
class JobTableStats:
    """Aggregates over a Balsam job table."""

    num_jobs: int
    num_finished: int
    mean_queue_wait: float       # submit -> start, seconds
    p95_queue_wait: float
    mean_run_time: float         # start -> end, seconds
    total_node_seconds: float    # sum of run times (1 node per job)


def _finished(jobs: list[BalsamJob]) -> list[BalsamJob]:
    return [j for j in jobs if j.state == "FINISHED"]


def utilization_from_jobs(service: BalsamService, end_time: float,
                          bin_width: float = 60.0
                          ) -> list[tuple[float, float]]:
    """Utilization trace computed purely from job (start, end) intervals.

    Sweep-line over the interval endpoints, integrated per bin and
    normalized by the cluster's worker-node count — the external
    monitor's view of Figs. 5/6/9.
    """
    if end_time <= 0:
        raise ValueError("end_time must be positive")
    events: list[tuple[float, int]] = []
    for job in service.jobs:
        if job.start_time < 0:
            continue
        start = job.start_time
        stop = job.end_time if job.end_time >= 0 else end_time
        events.append((start, +1))
        events.append((min(stop, end_time), -1))
    events.sort()

    nodes = service.cluster.worker_nodes
    trace: list[tuple[float, float]] = []
    busy = 0
    idx = 0
    t = 0.0
    while t < end_time:
        t_next = min(t + bin_width, end_time)
        area = 0.0
        cur = t
        while idx < len(events) and events[idx][0] <= t_next:
            et, delta = events[idx]
            if et > cur:
                area += busy * (et - cur)
                cur = et
            busy += delta
            idx += 1
        area += busy * (t_next - cur)
        trace.append((t_next, area / ((t_next - t) * nodes)))
        t = t_next
    return trace


def job_table_stats(service: BalsamService) -> JobTableStats:
    """Queue-wait / run-time aggregates over finished jobs."""
    finished = _finished(service.jobs)
    if not finished:
        return JobTableStats(len(service.jobs), 0, float("nan"),
                             float("nan"), float("nan"), 0.0)
    waits = np.array([j.start_time - j.submit_time for j in finished])
    runs = np.array([j.end_time - j.start_time for j in finished])
    return JobTableStats(
        num_jobs=len(service.jobs),
        num_finished=len(finished),
        mean_queue_wait=float(waits.mean()),
        p95_queue_wait=float(np.percentile(waits, 95)),
        mean_run_time=float(runs.mean()),
        total_node_seconds=float(runs.sum()))


def throughput_trace(service: BalsamService, end_time: float,
                     bin_width: float = 600.0
                     ) -> list[tuple[float, float]]:
    """Completed evaluations per second, per time bin."""
    if end_time <= 0:
        raise ValueError("end_time must be positive")
    ends = sorted(j.end_time for j in _finished(service.jobs)
                  if j.end_time <= end_time)
    trace: list[tuple[float, float]] = []
    idx = 0
    t = 0.0
    while t < end_time:
        t_next = min(t + bin_width, end_time)
        count = 0
        while idx < len(ends) and ends[idx] <= t_next:
            count += 1
            idx += 1
        trace.append((t_next, count / (t_next - t)))
        t = t_next
    return trace
