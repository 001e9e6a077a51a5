"""Unit tests for node allocation arithmetic and cluster occupancy."""

import pytest

from repro.hpc.cluster import Cluster, NodeAllocation
from repro.hpc.sim import Interrupt, Simulator, Timeout


class TestNodeAllocation:
    def test_paper_256(self):
        a = NodeAllocation.paper_256()
        assert (a.num_agents, a.workers_per_agent) == (21, 11)
        assert a.worker_nodes == 231
        # 21 agents + 231 workers + 1 Balsam + 3 unused = 256 (§5.1)
        assert a.used_nodes == 253
        assert a.total_nodes - a.used_nodes == 3

    @pytest.mark.parametrize("nodes,mode,agents,workers", [
        (512, "workers", 21, 23),
        (1024, "workers", 21, 47),
        (512, "agents", 42, 11),
        (1024, "agents", 85, 11),
    ])
    def test_paper_scaling_table(self, nodes, mode, agents, workers):
        a = NodeAllocation.paper_scaling(nodes, mode)
        assert (a.num_agents, a.workers_per_agent) == (agents, workers)
        assert a.used_nodes <= nodes

    def test_unknown_scaling_config(self):
        with pytest.raises(ValueError):
            NodeAllocation.paper_scaling(2048, "agents")

    def test_overcommit_rejected(self):
        with pytest.raises(ValueError):
            NodeAllocation(10, 5, 5)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            NodeAllocation(10, 0, 1)


class TestCluster:
    def test_release_without_acquire(self):
        c = Cluster(Simulator(), 1)
        with pytest.raises(RuntimeError):
            c.release()

    def test_fifo_waiting(self):
        sim = Simulator()
        c = Cluster(sim, 1)
        order = []

        def job(tag, hold):
            yield c.acquire()
            order.append(("start", tag, sim.now))
            yield Timeout(hold)
            c.release()

        sim.process(job("a", 5.0))
        sim.process(job("b", 5.0))
        sim.process(job("c", 5.0))
        sim.run()
        assert order == [("start", "a", 0.0), ("start", "b", 5.0),
                         ("start", "c", 10.0)]

    def test_handoff_keeps_occupancy(self):
        # when a waiter exists, release hands the node over directly
        sim = Simulator()
        c = Cluster(sim, 1)

        def job(hold):
            yield c.acquire()
            yield Timeout(hold)
            c.release()

        sim.process(job(2.0))
        sim.process(job(2.0))
        sim.run()
        # busy never dipped to 0 between the jobs
        busy_at = dict(c.samples)
        assert busy_at.get(2.0, 1) == 1 or all(
            b > 0 for t, b in c.samples if 0 < t < 4.0)

    def test_mean_utilization_exact(self):
        sim = Simulator()
        c = Cluster(sim, 2)

        def job(start, hold):
            yield Timeout(start)
            yield c.acquire()
            yield Timeout(hold)
            c.release()

        sim.process(job(0.0, 10.0))   # node busy [0, 10)
        sim.process(job(5.0, 5.0))    # node busy [5, 10)
        sim.run()
        # busy-node-seconds = 10 + 5 = 15 over 2 nodes * 10 s
        assert c.mean_utilization(10.0) == pytest.approx(0.75)

    def test_utilization_trace_bins(self):
        sim = Simulator()
        c = Cluster(sim, 1)

        def job():
            yield c.acquire()
            yield Timeout(3.0)
            c.release()

        sim.process(job())
        sim.run()
        trace = c.utilization_trace(6.0, bin_width=2.0)
        assert [u for _, u in trace] == pytest.approx([1.0, 0.5, 0.0])
        assert [t for t, _ in trace] == [2.0, 4.0, 6.0]

    def test_trace_rejects_bad_end(self):
        c = Cluster(Simulator(), 1)
        with pytest.raises(ValueError):
            c.utilization_trace(0.0)

    def test_utilization_bounded(self):
        sim = Simulator()
        c = Cluster(sim, 3)

        def job(start, hold):
            yield Timeout(start)
            yield c.acquire()
            yield Timeout(hold)
            c.release()

        for s in (0.0, 0.5, 1.0, 2.0):
            sim.process(job(s, 4.0))
        sim.run()
        u = c.mean_utilization(sim.now)
        assert 0.0 <= u <= 1.0


class TestClusterEdgeCases:
    def test_handoff_occupancy_with_waiter_chain(self):
        # a release with waiters hands the node over without busy ever
        # dipping: occupancy stays at capacity through the whole chain
        sim = Simulator()
        c = Cluster(sim, 2)
        min_busy_during = []

        def job(start, hold):
            yield Timeout(start)
            yield c.acquire()
            min_busy_during.append(c.busy)
            yield Timeout(hold)
            c.release()

        for s in (0.0, 0.0, 0.1, 0.1, 0.2):
            sim.process(job(s, 3.0))
        sim.run()
        # the handed-off grants at t=3 saw full occupancy — the node
        # passed straight from releaser to waiter without going idle
        assert min_busy_during[:4] == [2, 2, 2, 2]
        assert all(b >= 1 for b in min_busy_during)

    def test_mean_utilization_ignores_samples_past_end(self):
        sim = Simulator()
        c = Cluster(sim, 1)

        def job(hold):
            yield c.acquire()
            yield Timeout(hold)
            c.release()

        sim.process(job(20.0))     # busy [0, 20); release sample at t=20
        sim.run()
        # truncating at t=10 must not see the release at t=20
        assert c.mean_utilization(10.0) == pytest.approx(1.0)
        assert c.mean_utilization(40.0) == pytest.approx(0.5)

    def test_fifo_fairness_under_contention(self):
        # 8 jobs compete for 2 nodes: grants strictly follow arrival order
        sim = Simulator()
        c = Cluster(sim, 2)
        starts = []

        def job(tag, arrive):
            yield Timeout(arrive)
            yield c.acquire()
            starts.append(tag)
            yield Timeout(10.0)
            c.release()

        for i in range(8):
            sim.process(job(i, 0.1 * i))
        sim.run()
        assert starts == list(range(8))


class TestClusterFaults:
    def test_fail_idle_node_shrinks_capacity(self):
        sim = Simulator()
        c = Cluster(sim, 3)
        assert c.fail_node()
        assert c.worker_nodes == 2 and c.busy == 0
        assert c.num_failures == 1
        assert c.fault_events == [(0.0, "fail")]

    def test_fail_node_exhausted(self):
        c = Cluster(Simulator(), 1)
        assert c.fail_node()
        assert not c.fail_node()
        assert c.num_failures == 1

    def test_repair_restores_capacity_and_grants_waiter(self):
        sim = Simulator()
        c = Cluster(sim, 1)
        c.fail_node()
        granted = []

        def job():
            yield c.acquire()
            granted.append(sim.now)
            c.release()

        def repair():
            yield Timeout(5.0)
            c.repair_node()

        sim.process(job())
        sim.process(repair())
        sim.run()
        assert granted == [5.0]
        assert c.num_repairs == 1

    def test_release_sheds_surplus_lease_after_shrink(self):
        # capacity drops below occupancy (no victim): the next release
        # must shed the lease instead of handing it to a waiter
        sim = Simulator()
        c = Cluster(sim, 1)
        order = []

        def holder_job():
            yield c.acquire()
            yield Timeout(10.0)
            c.release()
            order.append(("released", sim.now))

        def waiter_job():
            yield Timeout(1.0)
            yield c.acquire()
            order.append(("granted", sim.now))
            c.release()

        def failer():
            yield Timeout(2.0)
            c.fail_node()          # no idle node: occupancy now exceeds 0
            yield Timeout(10.0)
            c.repair_node()

        sim.process(holder_job())
        sim.process(waiter_job())
        sim.process(failer())
        sim.run()
        # the waiter was NOT granted at t=10 (no capacity); only after
        # the repair at t=12
        assert order == [("released", 10.0), ("granted", 12.0)]

    def test_utilization_normalized_by_nominal_capacity(self):
        sim = Simulator()
        c = Cluster(sim, 2)

        def job(hold):
            yield c.acquire()
            yield Timeout(hold)
            c.release()

        sim.process(job(10.0))
        c.fail_node()              # one idle node dies immediately
        sim.run()
        # one of two nominal nodes busy for the window, failures ignored
        # in the denominator
        assert c.nominal_worker_nodes == 2
        assert c.mean_utilization(10.0) == pytest.approx(0.5)

    def test_victim_preemption_decrements_busy(self):
        sim = Simulator()
        c = Cluster(sim, 2)
        outcome = []

        def pilot():
            proc = ref[0]
            yield c.acquire(holder=proc)
            try:
                yield Timeout(100.0)
                c.release(holder=proc)
                outcome.append("finished")
            except Interrupt:
                outcome.append("preempted")

        ref = [None]
        ref[0] = sim.process(pilot())

        def failer():
            yield Timeout(1.0)
            c.fail_node(ref[0])

        sim.process(failer())
        sim.run()
        assert outcome == ["preempted"]
        assert c.busy == 0 and c.worker_nodes == 1
