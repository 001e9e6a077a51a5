"""Tests for the timed parameter server and A3C sharding (§7 extension).

k shards of the A3C server receive the same push stream and move in
lockstep, so ``ps_shards = k`` builds one server whose service time is
``ps_service_time / k`` (:class:`~repro.search.exchange.A3CExchange`).
"""

import numpy as np
import pytest

from repro.hpc import NodeAllocation, TrainingCostModel
from repro.hpc.sim import Simulator, Timeout
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.rl import ParameterServer
from repro.search import NasSearch, SearchConfig, build_exchange, run_search


def a3c_config(**kwargs):
    defaults = dict(method="a3c", allocation=NodeAllocation(32, 4, 3),
                    seed=1)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


def make_surrogate(space):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(),
                           train_fraction=0.1, timeout=600.0, seed=7)


class TestTimedPush:
    def test_service_time_delays_response(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=2, mode="async",
                             service_time=5.0)
        got = []

        def agent():
            avg = yield ps.push_async_timed(np.array([2.0]))
            got.append((sim.now, float(avg[0])))

        sim.process(agent())
        sim.run()
        assert got == [(5.0, 2.0)]

    def test_pushes_queue_fifo(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=3, mode="async",
                             service_time=10.0, staleness_window=3)
        done = []

        def agent(value):
            avg = yield ps.push_async_timed(np.array([value]))
            done.append((sim.now, float(avg[0])))

        for v in (1.0, 2.0, 3.0):
            sim.process(agent(v))
        sim.run()
        # serialized: completions at 10, 20, 30 with running averages
        assert done == [(10.0, 1.0), (20.0, 1.5), (30.0, 2.0)]

    def test_queue_delay_reflects_backlog(self):
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=2, mode="async",
                             service_time=10.0)

        def agent():
            ps.push_async_timed(np.array([1.0]))
            ps.push_async_timed(np.array([1.0]))
            assert ps.queue_delay == 20.0
            yield Timeout(0.0)

        sim.process(agent())
        sim.run()

    def test_sync_mode_rejects_timed_push(self):
        ps = ParameterServer(Simulator(), 2, mode="sync")
        with pytest.raises(RuntimeError):
            ps.push_async_timed(np.zeros(1))

    def test_negative_service_time_rejected(self):
        with pytest.raises(ValueError):
            ParameterServer(Simulator(), 2, service_time=-1.0)


class TestShardedServer:
    """Exchange-level sharding: the A3C exchange a sharded config
    builds."""

    def test_zero_cost_push_matches_single_server(self):
        space = combo_small()
        single = build_exchange(Simulator(), a3c_config(), space).ps
        sharded = build_exchange(Simulator(), a3c_config(ps_shards=3),
                                 space).ps
        rng = np.random.default_rng(0)
        for _ in range(5):
            delta = rng.standard_normal(6)
            np.testing.assert_array_equal(single.push_async(delta),
                                          sharded.push_async(delta))

    def test_sharding_parallelizes_service(self):
        """One full-vector push: k shards finish in service_time/k."""
        sim = Simulator()
        exchange = build_exchange(
            sim, a3c_config(ps_service_time=20.0, ps_shards=4),
            combo_small())
        assert exchange.ps.service_time == 5.0
        done = []

        def agent():
            avg = yield from exchange.on_gradient(0, np.ones(8), 0)
            done.append((sim.now, avg.shape))

        sim.process(agent())
        sim.run()
        assert done == [(5.0, (8,))]

    def test_invalid_ctor(self):
        """Shard counts below one are rejected."""
        for shards in (0, -1):
            with pytest.raises(ValueError, match="ps_shards"):
                a3c_config(ps_shards=shards)


class TestSearchIntegration:
    def test_sharded_a3c_resumes_bit_identically(self):
        """A sharded server checkpoints its exchange history like any
        other, so a mid-run checkpoint resumes onto the uninterrupted
        run's fingerprint."""
        space = combo_small()
        cfg = a3c_config(wall_time=30 * 60.0, ps_shards=2,
                         checkpoint_every_records=15)
        search = NasSearch(space, make_surrogate(space), cfg)
        full = search.run()
        assert len(search.checkpoints) >= 3
        mid = search.checkpoints[len(search.checkpoints) // 2]
        assert mid.ps_state is not None
        resumed = NasSearch(space, make_surrogate(space), cfg,
                            resume_from=mid.round_trip()).run()
        assert resumed.fingerprint() == full.fingerprint()
        assert resumed.num_evaluations == full.num_evaluations

    def test_ps_contention_reduces_throughput(self):
        space = combo_small()
        alloc = NodeAllocation(64, 8, 4)
        results = {}
        for label, st, shards in (("free", 0.0, 1), ("busy", 60.0, 1),
                                  ("sharded", 60.0, 4)):
            cfg = SearchConfig(method="a3c", allocation=alloc,
                               wall_time=60 * 60, seed=1,
                               ps_service_time=st, ps_shards=shards)
            results[label] = run_search(space, make_surrogate(space), cfg)
        assert results["busy"].num_evaluations < \
            results["free"].num_evaluations
        assert results["sharded"].num_evaluations > \
            results["busy"].num_evaluations
