"""Tests for the Balsam-style job-table monitoring module."""

import numpy as np
import pytest

from repro.evaluator.balsam import BalsamService
from repro.hpc.cluster import Cluster
from repro.hpc.monitor import (job_table_stats, throughput_trace,
                               utilization_from_jobs)
from repro.hpc.sim import Simulator
from repro.nas.arch import Architecture
from repro.rewards.base import EvalResult


def _service(nodes=2, latency=0.0):
    sim = Simulator()
    cluster = Cluster(sim, nodes)
    return sim, BalsamService(sim, cluster, submit_latency=latency)


def _submit(service, duration, agent=0):
    return service.submit(agent, Architecture("s", (0,)),
                          EvalResult(0.5, duration, 100))


class TestUtilizationFromJobs:
    def test_single_job(self):
        sim, service = _service(nodes=1)
        _submit(service, 5.0)
        sim.run()
        trace = utilization_from_jobs(service, 10.0, bin_width=5.0)
        assert trace == [(5.0, 1.0), (10.0, 0.0)]

    def test_matches_cluster_counters(self):
        """The external job-table view must agree with the cluster's
        internal occupancy accounting."""
        sim, service = _service(nodes=3, latency=0.5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            _submit(service, float(rng.uniform(1.0, 30.0)))
        sim.run()
        end = sim.now
        from_jobs = utilization_from_jobs(service, end, bin_width=7.0)
        from_cluster = service.cluster.utilization_trace(end, bin_width=7.0)
        for (t1, u1), (t2, u2) in zip(from_jobs, from_cluster):
            assert t1 == t2
            assert u1 == pytest.approx(u2, abs=1e-9)

    def test_running_jobs_counted_to_horizon(self):
        sim, service = _service(nodes=1)
        _submit(service, 100.0)
        sim.run(until=10.0)
        trace = utilization_from_jobs(service, 10.0, bin_width=10.0)
        assert trace == [(10.0, 1.0)]

    def test_bad_end_time(self):
        _, service = _service()
        with pytest.raises(ValueError):
            utilization_from_jobs(service, 0.0)


class TestJobTableStats:
    def test_empty_table(self):
        _, service = _service()
        stats = job_table_stats(service)
        assert stats.num_jobs == 0 and stats.num_finished == 0
        assert np.isnan(stats.mean_queue_wait)

    def test_queue_waits_and_runtimes(self):
        sim, service = _service(nodes=1)
        _submit(service, 10.0)
        _submit(service, 10.0)  # waits 10s for the node
        sim.run()
        stats = job_table_stats(service)
        assert stats.num_finished == 2
        assert stats.mean_queue_wait == pytest.approx(5.0)
        assert stats.mean_run_time == pytest.approx(10.0)
        assert stats.total_node_seconds == pytest.approx(20.0)


class TestThroughput:
    def test_completions_per_bin(self):
        sim, service = _service(nodes=2)
        for _ in range(4):
            _submit(service, 5.0)
        sim.run()
        # 2 finish at t=5, 2 at t=10
        trace = throughput_trace(service, 10.0, bin_width=5.0)
        assert trace == [(5.0, 0.4), (10.0, 0.4)]

    def test_bad_end_time(self):
        _, service = _service()
        with pytest.raises(ValueError):
            throughput_trace(service, -1.0)
