"""Unit tests for the synchronous/asynchronous parameter server."""

import numpy as np
import pytest

from repro.health import DeltaSanitizer
from repro.hpc.sim import Simulator, Timeout
from repro.rl.parameter_server import ParameterServer


class TestAsync:
    def test_returns_average_of_recent(self):
        ps = ParameterServer(Simulator(), num_agents=4, mode="async",
                             staleness_window=2)
        np.testing.assert_allclose(ps.push_async(np.array([1.0])), [1.0])
        np.testing.assert_allclose(ps.push_async(np.array([3.0])), [2.0])
        # window of 2: the first push falls out
        np.testing.assert_allclose(ps.push_async(np.array([5.0])), [4.0])

    def test_default_window_half_agents(self):
        ps = ParameterServer(Simulator(), num_agents=8, mode="async")
        assert ps._recent.maxlen == 4

    def test_sync_call_rejected(self):
        ps = ParameterServer(Simulator(), num_agents=2, mode="async")
        with pytest.raises(RuntimeError):
            ps.push_sync(np.zeros(1))


class TestSync:
    def test_barrier_releases_with_average(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=3, mode="sync", latency=0.0)
        got = []

        def agent(value):
            avg = yield ps.push_sync(np.array([value]))
            got.append(float(avg[0]))

        for v in (1.0, 2.0, 6.0):
            sim.process(agent(v))
        sim.run()
        assert got == [3.0, 3.0, 3.0]
        assert ps.num_rounds == 1

    def test_barrier_waits_for_slowest(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=2, mode="sync", latency=0.0)
        release_times = []

        def agent(delay, value):
            yield Timeout(delay)
            yield ps.push_sync(np.array([value]))
            release_times.append(sim.now)

        sim.process(agent(1.0, 1.0))
        sim.process(agent(10.0, 2.0))
        sim.run()
        assert release_times == [10.0, 10.0]

    def test_multiple_rounds(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=2, mode="sync", latency=0.0)
        got = []

        def agent(value):
            for i in range(3):
                avg = yield ps.push_sync(np.array([value + i]))
                got.append(float(avg[0]))

        sim.process(agent(0.0))
        sim.process(agent(10.0))
        sim.run()
        assert ps.num_rounds == 3
        assert got.count(5.0) == 2 and got.count(6.0) == 2

    def test_deregister_shrinks_barrier(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=2, mode="sync", latency=0.0)
        got = []

        def leaver():
            yield Timeout(1.0)
            ps.deregister()

        def stayer():
            yield Timeout(2.0)
            avg = yield ps.push_sync(np.array([7.0]))
            got.append(float(avg[0]))

        sim.process(leaver())
        sim.process(stayer())
        sim.run()
        assert got == [7.0]  # barrier of one

    def test_deregister_releases_pending_waiters(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=2, mode="sync", latency=0.0)
        got = []

        def pusher():
            avg = yield ps.push_sync(np.array([4.0]))
            got.append(float(avg[0]))

        def leaver():
            yield Timeout(5.0)
            ps.deregister()

        sim.process(pusher())
        sim.process(leaver())
        sim.run()
        assert got == [4.0]

    def test_async_call_rejected(self):
        ps = ParameterServer(Simulator(), num_agents=2, mode="sync")
        with pytest.raises(RuntimeError):
            ps.push_async(np.zeros(1))

    def test_over_deregister_rejected(self):
        ps = ParameterServer(Simulator(), num_agents=1, mode="sync")
        ps.deregister()
        with pytest.raises(RuntimeError):
            ps.deregister()


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ParameterServer(Simulator(), 2, mode="semi")

    def test_bad_agents(self):
        with pytest.raises(ValueError):
            ParameterServer(Simulator(), 0)


class TestBarrierSafety:
    def test_death_after_push_does_not_deadlock(self):
        """An agent that pushes, then dies mid-round: deregister shrinks
        the barrier and immediately releases the stale round, with the
        dead agent's pending push averaged in — survivors never hang."""
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=3, mode="sync", latency=0.0)
        got = []

        def doomed():
            yield ps.push_sync(np.array([9.0]), agent_id=0)

        def survivor():
            avg = yield ps.push_sync(np.array([1.0]), agent_id=1)
            got.append(float(avg[0]))

        def crash_reporter():
            yield Timeout(2.0)
            ps.deregister(failed=True)   # the runner's wrapper does this

        sim.process(doomed())
        sim.process(survivor())
        sim.process(crash_reporter())
        sim.run(until=100.0)
        assert got == [5.0]              # (9 + 1) / 2
        assert ps.num_failed_agents == 1
        assert ps.num_rounds == 1

    def test_death_before_push_releases_waiters(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=2, mode="sync", latency=0.0)
        got = []

        def pusher():
            avg = yield ps.push_sync(np.array([6.0]), agent_id=0)
            got.append(float(avg[0]))

        def crasher():
            yield Timeout(5.0)
            ps.deregister(failed=True)

        sim.process(pusher())
        sim.process(crasher())
        sim.run(until=100.0)
        assert got == [6.0]


class TestResurrectionBarrier:
    """Regression: a crash (``deregister(failed=True)``) during a sync
    barrier followed by a resurrection (``register(agent_id)``) must
    never double-release a round (events fire at most once; a second
    release of the same waiters would crash the kernel)."""

    def test_register_withdraws_stale_push(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=3, mode="sync", latency=0.0)
        # the doomed agent pushed, then crashed while parked: its waiter
        # is abandoned and its push is stale
        ps.push_sync(np.array([100.0]), agent_id=0)
        ps.deregister(failed=True)       # 1 pending < 2 active: no release
        assert ps.num_rounds == 0
        ps.register(agent_id=0)          # resurrection withdraws the push
        assert ps._pending == [] and ps._waiters == []

        got = []

        def agent(value, agent_id):
            avg = yield ps.push_sync(np.array([value]), agent_id=agent_id)
            got.append(float(avg[0]))

        for aid, v in enumerate((3.0, 6.0, 9.0)):
            sim.process(agent(v, aid))
        sim.run(until=100.0)
        # the replayed push is averaged, the stale 100.0 is not
        assert got == [6.0, 6.0, 6.0]
        assert ps.num_rounds == 1
        assert ps.num_resurrections == 1

    def test_crash_release_then_register_cannot_release_again(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=3, mode="sync", latency=0.0)
        got = []

        def agent(value, agent_id, rounds=1):
            for i in range(rounds):
                avg = yield ps.push_sync(np.array([value + i]),
                                         agent_id=agent_id)
                got.append(float(avg[0]))
                yield Timeout(5.0)   # next round starts after the rebirth

        sim.process(agent(1.0, 0, rounds=2))
        sim.process(agent(3.0, 1, rounds=2))

        def crash_and_resurrect():
            # agent 2 dies before pushing: deregister shrinks the
            # barrier to 2 and releases the round (1, 3) -> 2.0 ...
            yield Timeout(1.0)
            ps.deregister(failed=True)
            yield Timeout(1.0)
            # ... and the resurrection must not release anything itself
            rounds_before = ps.num_rounds
            ps.register(agent_id=2)
            assert ps.num_rounds == rounds_before
            avg = yield ps.push_sync(np.array([8.0]), agent_id=2)
            got.append(float(avg[0]))

        sim.process(crash_and_resurrect())
        sim.run(until=100.0)
        # round 1: (1+3)/2 = 2; round 2: (2+4+8)/3 with all three back
        assert got.count(2.0) == 2
        assert got.count(14.0 / 3.0) == 3
        assert ps.num_rounds == 2

    def test_over_register_rejected(self):
        ps = ParameterServer(Simulator(), num_agents=2, mode="sync")
        with pytest.raises(RuntimeError):
            ps.register()


class TestExportRestore:
    def test_async_round_trip(self):
        ps = ParameterServer(Simulator(), num_agents=4, mode="async",
                             staleness_window=2)
        ps.push_async(np.array([1.0, 2.0]))
        ps.push_async(np.array([3.0, 4.0]))
        state = ps.export_state()

        fresh = ParameterServer(Simulator(), num_agents=4, mode="async",
                                staleness_window=2)
        fresh.restore_state(state)
        assert fresh.num_pushes == 2
        # restored window produces the same averages: the new push
        # evicts [1, 2] and averages with [3, 4]
        np.testing.assert_allclose(fresh.push_async(np.array([5.0, 6.0])),
                                   [4.0, 5.0])

    def test_older_generation_with_age_eviction_keys_loads(self):
        # generations written while the server could evict by age also
        # carry "num_stale_evicted" and "recent_times"; they still load
        ps = ParameterServer(Simulator(), num_agents=4, mode="async",
                             staleness_window=2, sanitizer=DeltaSanitizer())
        ps.push_async(np.array([1.0, 2.0]))
        state = ps.export_state()
        assert set(state["health"]) == {"num_resurrections", "sanitizer"}
        state["health"].update(num_stale_evicted=3, recent_times=[0.0])

        fresh = ParameterServer(Simulator(), num_agents=4, mode="async",
                                staleness_window=2,
                                sanitizer=DeltaSanitizer())
        fresh.restore_state(state)
        assert fresh.export_state() == ps.export_state()
        np.testing.assert_allclose(fresh.push_async(np.array([3.0, 4.0])),
                                   [2.0, 3.0])

    def test_sync_export_excludes_pending_round(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=2, mode="sync")

        def half_round():
            yield ps.push_sync(np.array([1.0]), agent_id=0)

        sim.process(half_round())
        sim.run(until=1.0)
        state = ps.export_state()
        # the in-flight push is excluded: its iteration replays on resume
        assert state["num_pushes"] == 0
        assert state["num_rounds"] == 0

    def test_mode_mismatch_rejected(self):
        a = ParameterServer(Simulator(), num_agents=2, mode="async")
        b = ParameterServer(Simulator(), num_agents=2, mode="sync")
        with pytest.raises(ValueError):
            b.restore_state(a.export_state())

    def test_restore_clears_transients(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=2, mode="sync")

        def half_round():
            yield ps.push_sync(np.array([1.0]), agent_id=0)

        sim.process(half_round())
        sim.run(until=1.0)
        ps.restore_state(ParameterServer(Simulator(), num_agents=2,
                                         mode="sync").export_state())
        assert ps._pending == [] and ps._waiters == []
