"""Tests for the timed parameter server and A3C sharding (§7 extension).

k shards of the A3C server receive the same push stream and move in
lockstep, so k shards of a server with service time s run as one server
with ``ps_service_time = s / k`` (:class:`~repro.search.proposer.A3CProposer`).
"""

import dataclasses
import os
from types import SimpleNamespace

import numpy as np
import pytest

from _checkpoint_common import CaptureLog
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.hpc.sim import Simulator, Timeout
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.rl import ParameterServer
from repro.search import (A3CProposer, NasSearch, SearchConfig,
                          build_proposer, run_search)


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
            avg = yield from ps.push_async_timed(np.array([2.0]))
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
            avg = yield from ps.push_async_timed(np.array([value]))
            done.append((sim.now, float(avg[0])))

        for v in (1.0, 2.0, 3.0):
            sim.process(agent(v))
        sim.run()
        # serialized: completions at 10, 20, 30 with running averages
        assert done == [(10.0, 1.0), (20.0, 1.5), (30.0, 2.0)]

    def test_push_lands_in_the_pushers_own_wakeup(self):
        """A process running at the push's finish time, between its
        service completion and the pusher's wakeup, sees the server
        without that push: the exported state agrees with a pusher
        that has not yet moved past it (a checkpoint taken there
        replays the push instead of double-counting it)."""
        sim = Simulator()
        ps = ParameterServer(sim, num_agents=2, mode="async",
                             service_time=5.0)
        seen = []

        def pusher():
            yield from ps.push_async_timed(np.array([1.0]))
            seen.append(("woke", sim.now))

        def observer():
            yield Timeout(5.0)
            state = ps.export_state()
            seen.append(("observed", sim.now, state["num_pushes"],
                         len(state["recent"]), state["served_until"]))

        sim.process(pusher())
        sim.process(observer())
        sim.run()
        assert seen == [("observed", 5.0, 0, 0, 0.0), ("woke", 5.0)]
        assert ps.export_state()["served_until"] == 5.0

    def test_sync_mode_rejects_timed_push(self):
        ps = ParameterServer(Simulator(), 2, mode="sync")
        with pytest.raises(RuntimeError):
            ps.push_async_timed(np.zeros(1))

    def test_negative_service_time_rejected(self):
        with pytest.raises(ValueError):
            ParameterServer(Simulator(), 2, service_time=-1.0)


class TestShardedServer:
    """Proposer-level sharding: the A3C server a k-shard service time
    builds."""

    def test_sharding_parallelizes_service(self):
        """One full-vector push: k shards finish in service_time/k."""
        sim = Simulator()
        proposer = build_proposer(sim, a3c_config(ps_service_time=20.0 / 4),
                                  combo_small())
        assert isinstance(proposer, A3CProposer)
        assert proposer.ps.service_time == 5.0
        done = []

        def agent():
            loop = SimpleNamespace(agent_id=0, iteration=0)
            avg = yield from proposer.push(loop, np.ones(8))
            done.append((sim.now, avg.shape))

        sim.process(agent())
        sim.run()
        assert done == [(5.0, (8,))]


class TestSearchIntegration:
    def test_sharded_a3c_resumes_bit_identically(self, tmp_path):
        """A timed server (two shards of a 20 s server, and one 20 s
        server) checkpoints its exchange history and its queue clock, so
        every generation resumes onto the uninterrupted run's
        fingerprint — including those taken while a push is queued
        behind an already-applied one."""
        space = combo_small()
        for service_time in (20.0 / 2, 20.0):
            cfg = a3c_config(wall_time=30 * 60.0,
                             ps_service_time=service_time)
            log = CaptureLog()
            full = log.attach(NasSearch(
                space, make_surrogate(space),
                dataclasses.replace(
                    cfg, checkpoint_every_records=15,
                    journal_dir=os.fspath(tmp_path / str(service_time))),
                event_sink=log)).run()
            assert len(log.captures) >= 3
            for gen in range(len(log.captures)):
                ckpt = log.checkpoint(gen)
                assert ckpt.ps_state is not None
                resumed = NasSearch(space, make_surrogate(space), cfg,
                                    resume_from=ckpt).run()
                where = f"service time {service_time}, generation {gen}"
                assert resumed.fingerprint() == full.fingerprint(), where
                assert resumed.num_evaluations == full.num_evaluations, \
                    where

    def test_ps_contention_reduces_throughput(self):
        space = combo_small()
        alloc = NodeAllocation(64, 8, 4)
        results = {}
        for label, st in (("free", 0.0), ("busy", 60.0),
                          ("sharded", 60.0 / 4)):
            cfg = SearchConfig(method="a3c", allocation=alloc,
                               wall_time=60 * 60, seed=1,
                               ps_service_time=st)
            results[label] = run_search(space, make_surrogate(space), cfg)
        assert results["busy"].num_evaluations < \
            results["free"].num_evaluations
        assert results["sharded"].num_evaluations > \
            results["busy"].num_evaluations
