"""Unit tests for the evaluator API, cache, and Balsam backend."""

import numpy as np
import pytest

from repro.evaluator import (BalsamEvaluator, BalsamService, EvalCache,
                             SerialEvaluator)
from repro.hpc.cluster import Cluster
from repro.hpc.faults import FaultConfig, FaultInjector
from repro.hpc.sim import Simulator, Timeout
from repro.nas.arch import Architecture
from repro.rewards.base import EvalResult, RewardModel


class StubReward(RewardModel):
    """Deterministic reward: sum of choices; duration = 10 + first choice."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, arch, agent_seed=0):
        self.calls += 1
        return EvalResult(reward=float(sum(arch.choices)) + agent_seed * 100,
                          duration=10.0 + arch.choices[0],
                          params=1000 * (1 + arch.choices[0]))


def A(*choices):
    return Architecture("stub", tuple(choices))


class TestEvalCache:
    def test_miss_then_hit(self):
        cache = EvalCache()
        assert cache.get(A(1)) is None
        cache.put(A(1), EvalResult(0.5, 1.0, 10))
        assert cache.get(A(1)).reward == 0.5

    def test_contains_and_len(self):
        cache = EvalCache()
        cache.put(A(1), EvalResult(0.5, 1.0, 10))
        assert A(1) in cache and A(2) not in cache
        assert len(cache) == 1

    def test_distinct_spaces_distinct_keys(self):
        cache = EvalCache()
        cache.put(Architecture("s1", (1,)), EvalResult(0.1, 1.0, 1))
        assert cache.get(Architecture("s2", (1,))) is None


class TestSerialEvaluator:
    def test_evaluates_and_drains(self):
        ev = SerialEvaluator(StubReward())
        ev.add_eval_batch([A(1, 2), A(3, 4)])
        recs = ev.get_finished_evals()
        assert [r.reward for r in recs] == [3.0, 7.0]
        assert ev.get_finished_evals() == []

    def test_cache_prevents_reevaluation(self):
        rm = StubReward()
        ev = SerialEvaluator(rm)
        ev.add_eval_batch([A(1, 2)])
        ev.add_eval_batch([A(1, 2)])
        recs = ev.get_finished_evals()
        assert rm.calls == 1
        assert recs[1].cached and not recs[0].cached
        assert ev.num_cache_hits == 1

    def test_cache_disabled(self):
        rm = StubReward()
        ev = SerialEvaluator(rm, use_cache=False)
        ev.add_eval_batch([A(1, 2)])
        ev.add_eval_batch([A(1, 2)])
        assert rm.calls == 2

    def test_agent_seed_passed(self):
        ev = SerialEvaluator(StubReward(), agent_id=3)
        ev.add_eval_batch([A(1, 1)])
        assert ev.get_finished_evals()[0].reward == 302.0


class TestBalsamService:
    def _setup(self, nodes=2):
        sim = Simulator()
        cluster = Cluster(sim, nodes)
        service = BalsamService(sim, cluster, submit_latency=1.0)
        return sim, cluster, service

    def test_job_lifecycle(self):
        sim, cluster, service = self._setup()
        job = service.submit(0, A(1), EvalResult(0.5, 10.0, 100))
        assert job.state == "CREATED"
        sim.run()
        assert job.state == "FINISHED"
        assert job.start_time == 1.0        # submit latency
        assert job.end_time == 11.0
        assert service.num_finished == 1

    def test_jobs_queue_on_busy_cluster(self):
        sim, cluster, service = self._setup(nodes=1)
        j1 = service.submit(0, A(1), EvalResult(0.1, 10.0, 1))
        j2 = service.submit(0, A(2), EvalResult(0.2, 10.0, 1))
        sim.run()
        assert j1.end_time == 11.0
        assert j2.start_time == 11.0 and j2.end_time == 21.0

    def test_utilization_reflects_jobs(self):
        sim, cluster, service = self._setup(nodes=2)
        service.submit(0, A(1), EvalResult(0.1, 10.0, 1))
        service.submit(0, A(2), EvalResult(0.2, 10.0, 1))
        sim.run()
        # both nodes busy from t=1 to t=11
        u = cluster.mean_utilization(11.0)
        assert u == pytest.approx(10.0 / 11.0)


class TestBalsamEvaluator:
    def _setup(self, nodes=4):
        sim = Simulator()
        cluster = Cluster(sim, nodes)
        service = BalsamService(sim, cluster, submit_latency=0.0)
        return sim, BalsamEvaluator(service, StubReward(), agent_id=0)

    def test_batch_event_fires_when_all_done(self):
        sim, ev = self._setup()
        done_at = []

        def agent():
            batch = ev.add_eval_batch([A(0, 0), A(5, 0)])
            yield batch
            done_at.append(sim.now)

        sim.process(agent())
        sim.run()
        # durations 10 and 15: the barrier is the slower one
        assert done_at == [15.0]
        recs = ev.get_finished_evals()
        assert sorted(r.reward for r in recs) == [0.0, 5.0]

    def test_cached_batch_completes_instantly(self):
        sim, ev = self._setup()
        times = []

        def agent():
            yield ev.add_eval_batch([A(1, 1)])
            ev.get_finished_evals()
            t0 = sim.now
            yield ev.add_eval_batch([A(1, 1)])
            times.append(sim.now - t0)
            assert ev.last_batch_all_cached

        sim.process(agent())
        sim.run()
        assert times == [0.0]

    def test_duplicates_within_batch_counted(self):
        sim, ev = self._setup()

        def agent():
            yield ev.add_eval_batch([A(2, 2), A(2, 2)])

        sim.process(agent())
        sim.run()
        recs = ev.get_finished_evals()
        assert len(recs) == 2  # one real eval + (potentially) one duplicate

    def test_mixed_batch_not_all_cached(self):
        sim, ev = self._setup()

        def agent():
            yield ev.add_eval_batch([A(1, 1)])
            ev.get_finished_evals()
            yield ev.add_eval_batch([A(1, 1), A(9, 9)])
            assert not ev.last_batch_all_cached

        sim.process(agent())
        sim.run()


class TestBalsamRetries:
    """Balsam job lifecycle under faults: RUN_ERROR -> RESTART_ENABLED
    with exponential backoff, then FAILED after three restarts."""

    def _setup(self, faults, nodes=2):
        sim = Simulator()
        cluster = Cluster(sim, nodes)
        service = BalsamService(sim, cluster, submit_latency=1.0,
                                faults=FaultInjector(sim, faults))
        return sim, cluster, service

    def test_crash_restarts_and_finishes(self):
        # crash probability 1 on attempt 1 only is impossible to pin with
        # a seeded rng, so crash every attempt but allow enough retries
        # to observe RESTART_ENABLED bookkeeping deterministically
        sim, cluster, service = self._setup(
            FaultConfig(job_crash_prob=1.0, seed=0))
        job = service.submit(0, A(1), EvalResult(0.5, 10.0, 100))
        sim.run()
        assert job.state == "FAILED"
        assert job.num_retries == 3
        assert job.attempts == 4
        assert job.failed
        assert job.done.triggered
        assert service.num_restarts == 3
        assert cluster.busy == 0            # every crash released its node

    def test_backoff_is_exponential(self):
        sim, cluster, service = self._setup(
            FaultConfig(job_crash_prob=1.0, seed=0))
        job = service.submit(0, A(1), EvalResult(0.5, 10.0, 100))
        sim.run()
        # attempt starts: latency 1.0, then retry k waits 5*2^(k-1)
        # after its partial run
        waits = [s for s, _ in job.run_log]
        gaps = [round(b - a, 6) for a, b in zip(waits, waits[1:])]
        # gap = partial run + backoff
        backoffs = [round(g - 10.0 * service.faults.job_fault(
            job.job_id, k + 1).crash_frac, 6)
            for k, g in enumerate(gaps)]
        assert backoffs == [5.0, 10.0, 20.0]

    def test_zero_faults_identical_lifecycle(self):
        sim = Simulator()
        cluster = Cluster(sim, 2)
        plain = BalsamService(sim, cluster, submit_latency=1.0)
        job = plain.submit(0, A(1), EvalResult(0.5, 10.0, 100))
        sim.run()
        assert (job.state, job.start_time, job.end_time) == \
            ("FINISHED", 1.0, 11.0)
        assert job.attempts == 1 and job.num_retries == 0

    def test_failed_job_surfaces_failure_reward(self):
        sim = Simulator()
        cluster = Cluster(sim, 2)
        service = BalsamService(
            sim, cluster,
            faults=FaultInjector(sim, FaultConfig(job_crash_prob=1.0)))
        ev = BalsamEvaluator(service, StubReward(), agent_id=0)
        released = []

        def agent():
            yield ev.add_eval_batch([A(1, 2)])
            released.append(sim.now)

        sim.process(agent())
        sim.run()
        assert released                      # the barrier still released
        recs = ev.get_finished_evals()
        assert [r.reward for r in recs] == [RewardModel.FAILURE_REWARD]
        assert ev.num_failed == 1
        # failures are never cached: the arch may be retried later
        assert ev.cache is not None and len(ev.cache) == 0


class TestBatchDeadline:
    def test_deadline_releases_stuck_barrier(self):
        sim = Simulator()
        cluster = Cluster(sim, 1)
        service = BalsamService(sim, cluster, submit_latency=0.0)
        ev = BalsamEvaluator(service, StubReward(), agent_id=0,
                             batch_deadline=30.0)
        # occupy the only node forever: the batch can never start
        blocker = service.submit(9, A(9, 0), EvalResult(0.0, 1e9, 1))
        released = []

        def agent():
            yield Timeout(1.0)
            yield ev.add_eval_batch([A(1, 1)])
            released.append(sim.now)

        sim.process(agent())
        sim.run(until=100.0)
        assert released == [31.0]            # submit + deadline
        recs = ev.get_finished_evals()
        assert [r.reward for r in recs] == [RewardModel.FAILURE_REWARD]
        assert recs[0].result.reward == RewardModel.FAILURE_REWARD
        assert ev.num_failed == 1

    def test_timed_out_job_releases_node_when_granted(self):
        # the abandoned job eventually reaches the head of the queue: its
        # pilot must hand the node straight back
        sim = Simulator()
        cluster = Cluster(sim, 1)
        service = BalsamService(sim, cluster, submit_latency=0.0)
        ev = BalsamEvaluator(service, StubReward(), agent_id=0,
                             batch_deadline=5.0)
        blocker = service.submit(9, A(9, 9), EvalResult(0.0, 50.0, 1))

        def agent():
            yield ev.add_eval_batch([A(1, 1)])

        sim.process(agent())
        sim.run()
        abandoned = service.jobs[1]
        assert abandoned.state == "RUN_TIMEOUT"
        assert cluster.busy == 0             # node returned after grant

    def test_deadline_validation(self):
        sim = Simulator()
        service = BalsamService(sim, Cluster(sim, 1))
        with pytest.raises(ValueError):
            BalsamEvaluator(service, StubReward(), agent_id=0,
                            batch_deadline=0.0)

    def test_no_deadline_waits_forever(self):
        sim = Simulator()
        cluster = Cluster(sim, 1)
        service = BalsamService(sim, cluster, submit_latency=0.0)
        ev = BalsamEvaluator(service, StubReward(), agent_id=0)
        service.submit(9, A(9, 0), EvalResult(0.0, 1e9, 1))
        released = []

        def agent():
            yield ev.add_eval_batch([A(1, 1)])
            released.append(sim.now)

        sim.process(agent())
        sim.run(until=10_000.0)
        assert released == []


class TestEmptyBatch:
    def test_empty_batch_succeeds_immediately(self):
        sim = Simulator()
        service = BalsamService(sim, Cluster(sim, 1), submit_latency=0.0)
        ev = BalsamEvaluator(service, StubReward(), agent_id=0)
        done = ev.add_eval_batch([])
        assert done.triggered                # no finisher, no AllOf([])
        assert not ev.last_batch_all_cached  # explicitly NOT convergence
        assert ev.get_finished_evals() == []

    def test_all_cached_batch_succeeds_immediately(self):
        sim = Simulator()
        service = BalsamService(sim, Cluster(sim, 1), submit_latency=0.0)
        ev = BalsamEvaluator(service, StubReward(), agent_id=0)

        def agent():
            yield ev.add_eval_batch([A(3, 3)])
            ev.get_finished_evals()
            done = ev.add_eval_batch([A(3, 3)])
            assert done.triggered
            assert ev.last_batch_all_cached

        sim.process(agent())
        sim.run()
        recs = ev.get_finished_evals()
        assert len(recs) == 1 and recs[0].cached


class TestBatchStatsEvent:
    """The broker's batched plan gather: each submission prefetches every
    distinct architecture's plan from the shared cache and reports the
    gather through a BATCH_STATS event."""

    def _surrogate_with_cache(self):
        from repro.hpc import TrainingCostModel
        from repro.nas.plancache import PlanCache
        from repro.nas.spaces import combo_small
        from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
        from repro.rewards import SurrogateReward

        space = combo_small()
        rm = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                             TrainingCostModel.combo_paper(), epochs=1,
                             train_fraction=0.1, timeout=600.0, seed=7)
        rm.set_plan_cache(PlanCache())
        return space, rm

    def test_no_plan_cache_no_event(self):
        from repro.events import BATCH_STATS, RecordingSink

        sink = RecordingSink()
        ev = SerialEvaluator(StubReward(), sink=sink, use_cache=False)
        ev.add_eval_batch([A(1), A(2)])
        assert sink.of_kind(BATCH_STATS) == []

    def test_gather_reports_batch_and_cache_deltas(self):
        from repro.events import BATCH_STATS, RecordingSink

        space, rm = self._surrogate_with_cache()
        sink = RecordingSink()
        ev = SerialEvaluator(rm, sink=sink, use_cache=False)
        rng = np.random.default_rng(0)
        archs = [space.random_architecture(rng) for _ in range(3)]

        ev.add_eval_batch([archs[0], archs[0], archs[1], archs[2]])
        first = sink.of_kind(BATCH_STATS)[0].payload
        assert first["batch"] == 4
        assert first["distinct"] == 3       # duplicate deduplicated
        assert first["plan_misses"] == 3    # cold cache: all compiled
        assert first["plan_hits"] == 0

        # resubmission: every distinct arch answered from the warm cache.
        # the evaluate() calls of batch one also hit the cache, so only
        # the *delta* across this gather is asserted
        ev.add_eval_batch(archs)
        second = sink.of_kind(BATCH_STATS)[1].payload
        assert second["distinct"] == 3
        assert second["plan_hits"] == 3
        assert second["plan_misses"] == 0

    def test_event_payload_serializes(self):
        import json

        from repro.events import BATCH_STATS, RecordingSink

        space, rm = self._surrogate_with_cache()
        sink = RecordingSink()
        ev = SerialEvaluator(rm, sink=sink)
        ev.add_eval_batch([space.random_architecture(np.random.default_rng(1))])
        event = sink.of_kind(BATCH_STATS)[0]
        round_trip = json.loads(json.dumps(event.to_dict()))
        assert round_trip["kind"] == BATCH_STATS
        assert set(round_trip["payload"]) == {"batch", "distinct",
                                              "plan_hits", "plan_misses",
                                              "iso_hits"}
