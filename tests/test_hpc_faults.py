"""Unit tests for the fault-injection layer (FaultConfig/FaultInjector)."""

import pytest

from repro.hpc.cluster import Cluster
from repro.hpc.faults import FaultConfig, FaultInjector, JobFault
from repro.hpc.sim import Interrupt, Simulator, Timeout


class TestFaultConfig:
    def test_defaults_inert(self):
        cfg = FaultConfig()
        assert not cfg.enabled

    @pytest.mark.parametrize("kwargs", [
        dict(node_mtbf=3600.0),
        dict(job_crash_prob=0.01),
        dict(straggler_prob=0.1),
        dict(outages=((10.0, 20.0),)),
    ])
    def test_any_knob_enables(self, kwargs):
        assert FaultConfig(**kwargs).enabled

    @pytest.mark.parametrize("kwargs", [
        dict(node_mtbf=-1.0),
        dict(node_repair_time=0.0),
        dict(job_crash_prob=1.5),
        dict(straggler_prob=-0.1),
        dict(nan_grad_prob=1.5),
        dict(corrupt_delta_prob=-0.1),
        dict(outages=((20.0, 10.0),)),
        dict(outages=((-5.0, 10.0),)),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)


class TestJobFaults:
    def test_disabled_returns_none(self):
        inj = FaultInjector(Simulator(), FaultConfig(node_mtbf=3600.0))
        assert inj.job_fault(0, 1) is None

    def test_deterministic_per_job_and_attempt(self):
        cfg = FaultConfig(job_crash_prob=0.5, straggler_prob=0.3, seed=42)
        a = FaultInjector(Simulator(), cfg)
        b = FaultInjector(Simulator(), cfg)
        for job_id in range(50):
            fa = a.job_fault(job_id, 1)
            fb = b.job_fault(job_id, 1)
            assert (fa.crashes, fa.crash_frac, fa.slowdown) == \
                   (fb.crashes, fb.crash_frac, fb.slowdown)

    def test_independent_of_query_order(self):
        cfg = FaultConfig(job_crash_prob=0.5, seed=3)
        a = FaultInjector(Simulator(), cfg)
        b = FaultInjector(Simulator(), cfg)
        fwd = [a.job_fault(i, 1).crashes for i in range(20)]
        rev = [b.job_fault(i, 1).crashes for i in reversed(range(20))]
        assert fwd == list(reversed(rev))

    def test_attempts_draw_independently(self):
        cfg = FaultConfig(job_crash_prob=0.5, seed=1)
        inj = FaultInjector(Simulator(), cfg)
        draws = {inj.job_fault(7, attempt).crashes for attempt in range(1, 30)}
        assert draws == {True, False}  # not all attempts crash or succeed

    def test_crash_rate_matches_probability(self):
        cfg = FaultConfig(job_crash_prob=0.2, seed=0)
        inj = FaultInjector(Simulator(), cfg)
        crashes = sum(inj.job_fault(i, 1).crashes for i in range(2000))
        assert 300 < crashes < 500  # ~400 expected

    def test_straggler_slowdown(self):
        cfg = FaultConfig(straggler_prob=1.0, seed=0)
        inj = FaultInjector(Simulator(), cfg)
        assert inj.job_fault(0, 1).slowdown == 3.0


class TestOutages:
    def test_outage_delay(self):
        cfg = FaultConfig(outages=((100.0, 150.0), (300.0, 360.0)))
        inj = FaultInjector(Simulator(), cfg)
        assert inj.outage_delay(50.0) == 0.0
        assert inj.outage_delay(100.0) == 50.0
        assert inj.outage_delay(149.0) == 1.0
        assert inj.outage_delay(150.0) == 0.0
        assert inj.outage_delay(330.0) == 30.0


class TestNodeFaults:
    def _run(self, cfg, worker_nodes=8, until=50_000.0):
        sim = Simulator()
        cluster = Cluster(sim, worker_nodes)
        inj = FaultInjector(sim, cfg)
        inj.attach(cluster)
        sim.run(until=until)
        return cluster, inj

    def test_failures_and_repairs_occur(self):
        cfg = FaultConfig(node_mtbf=2000.0, node_repair_time=200.0, seed=5)
        cluster, inj = self._run(cfg)
        assert inj.num_node_failures > 0
        assert cluster.num_failures == inj.num_node_failures
        assert cluster.num_repairs > 0
        # repairs return capacity; at most the in-flight failures are open
        assert 1 <= cluster.worker_nodes <= 8

    def test_deterministic_schedule(self):
        cfg = FaultConfig(node_mtbf=2000.0, node_repair_time=200.0, seed=5)
        a, _ = self._run(cfg)
        b, _ = self._run(cfg)
        assert a.fault_events == b.fault_events

    def test_seed_changes_schedule(self):
        a, _ = self._run(FaultConfig(node_mtbf=2000.0, seed=1))
        b, _ = self._run(FaultConfig(node_mtbf=2000.0, seed=2))
        assert a.fault_events != b.fault_events

    def test_respects_min_worker_nodes(self):
        # failures outpace repairs, so capacity falls to the one-node
        # floor and never below it
        cfg = FaultConfig(node_mtbf=50.0, node_repair_time=100_000.0,
                          seed=0)
        cluster, _ = self._run(cfg, worker_nodes=8, until=100_000.0)
        up, lowest = 8, 8
        for _, kind in cluster.fault_events:
            up += -1 if kind == "fail" else 1
            lowest = min(lowest, up)
        assert lowest == 1

    def test_failure_preempts_running_pilot(self):
        sim = Simulator()
        cluster = Cluster(sim, 1)
        interrupted = []

        def pilot():
            proc = holder[0]
            yield cluster.acquire(holder=proc)
            try:
                yield Timeout(1000.0)
                cluster.release(holder=proc)
            except Interrupt as intr:
                interrupted.append(intr.cause)

        holder = [None]
        holder[0] = sim.process(pilot())

        def killer():
            yield Timeout(10.0)
            assert cluster.fail_node(holder[0])

        sim.process(killer())
        sim.run(until=100.0)
        assert interrupted == ["node_failure"]
        assert cluster.busy == 0 and cluster.worker_nodes == 0

    def test_stop_interrupts_processes(self):
        sim = Simulator()
        cluster = Cluster(sim, 4)
        inj = FaultInjector(sim, FaultConfig(node_mtbf=100.0,
                                             node_repair_time=50.0, seed=0))
        inj.attach(cluster)

        def stopper():
            yield Timeout(1000.0)
            inj.stop()

        sim.process(stopper())
        sim.run(until=10_000.0)
        # nothing runs after stop: the sim drains well before `until`
        assert sim.now < 10_000.0
        # stop repairs in-flight failures immediately: capacity restored
        assert cluster.worker_nodes == 4
