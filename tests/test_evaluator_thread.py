"""Unit tests for the thread-pool evaluator backend."""

import threading
import time

from repro.evaluator import ThreadEvaluator
from repro.nas.arch import Architecture
from repro.rewards.base import EvalResult, RewardModel


class SlowReward(RewardModel):
    def __init__(self, delay=0.01, barrier=None):
        self.delay = delay
        self.barrier = barrier
        self.calls = 0
        self.threads = set()
        self._lock = threading.Lock()

    def evaluate(self, arch, agent_seed=0):
        with self._lock:
            self.calls += 1
            self.threads.add(threading.get_ident())
        if self.barrier is not None:
            self.barrier.wait()
        time.sleep(self.delay)
        return EvalResult(float(sum(arch.choices)), self.delay, 10)


def A(*choices):
    return Architecture("t", tuple(choices))


class TestThreadEvaluator:
    def test_nonblocking_then_complete(self):
        with ThreadEvaluator(SlowReward(0.05), max_workers=2) as ev:
            ev.add_eval_batch([A(1), A(2)])
            # non-blocking: results may not be ready instantly
            ev.wait_all()
            recs = ev.get_finished_evals()
            assert sorted(r.reward for r in recs) == [1.0, 2.0]

    def test_parallel_execution(self):
        # every evaluation waits at a 4-party barrier, so they finish only
        # if all four are in flight at once; a barrier that times out
        # breaks, and each waiter's BrokenBarrierError becomes a failure
        rm = SlowReward(0.0, barrier=threading.Barrier(4, timeout=10))
        with ThreadEvaluator(rm, max_workers=4) as ev:
            ev.add_eval_batch([A(i) for i in range(4)])
            ev.wait_all()
            recs = ev.get_finished_evals()
        assert sorted(r.reward for r in recs) == [0.0, 1.0, 2.0, 3.0]
        assert ev.num_failed == 0
        assert len(rm.threads) == 4

    def test_cache_hits_skip_pool(self):
        rm = SlowReward(0.0)
        with ThreadEvaluator(rm, max_workers=2) as ev:
            ev.add_eval_batch([A(5)])
            ev.wait_all()
            ev.get_finished_evals()
            ev.add_eval_batch([A(5)])
            recs = ev.get_finished_evals()
            assert rm.calls == 1
            assert recs[0].cached

    def test_drain_is_incremental(self):
        rm = SlowReward(0.0)
        with ThreadEvaluator(rm, max_workers=2) as ev:
            ev.add_eval_batch([A(1)])
            ev.wait_all()
            first = ev.get_finished_evals()
            assert len(first) == 1
            assert ev.get_finished_evals() == []

    def test_agent_seed_forwarded(self):
        class SeedEcho(RewardModel):
            def evaluate(self, arch, agent_seed=0):
                return EvalResult(float(agent_seed), 0.0, 1)

        with ThreadEvaluator(SeedEcho(), agent_id=7, max_workers=1) as ev:
            ev.add_eval_batch([A(0)])
            ev.wait_all()
            assert ev.get_finished_evals()[0].reward == 7.0


class ExplodingReward(RewardModel):
    """Raises for archs whose first choice is odd."""

    def evaluate(self, arch, agent_seed=0):
        if arch.choices[0] % 2 == 1:
            raise FloatingPointError("overflow in fake training")
        return EvalResult(float(sum(arch.choices)), 0.01, 10)


class TestWorkerFailures:
    def test_worker_exception_becomes_failure_reward(self):
        ev = ThreadEvaluator(ExplodingReward(), max_workers=2)
        try:
            ev.add_eval_batch([A(1, 5), A(2, 3)])
            ev.wait_all()
            recs = ev.get_finished_evals()
        finally:
            ev.shutdown()
        by_arch = {r.arch.choices: r for r in recs}
        assert by_arch[(1, 5)].reward == RewardModel.FAILURE_REWARD
        assert by_arch[(2, 3)].reward == 5.0
        assert ev.num_failed == 1

    def test_failures_not_cached(self):
        ev = ThreadEvaluator(ExplodingReward(), max_workers=1)
        try:
            ev.add_eval_batch([A(1, 1)])
            ev.wait_all()
            ev.get_finished_evals()
            # the same arch is re-attempted, not served from the cache
            ev.add_eval_batch([A(1, 1)])
            ev.wait_all()
            recs = ev.get_finished_evals()
        finally:
            ev.shutdown()
        assert not recs[0].cached
        assert ev.num_failed == 2
        assert ev.num_cache_hits == 0

    def test_mixed_batch_keeps_successes(self):
        ev = ThreadEvaluator(ExplodingReward(), max_workers=4)
        try:
            archs = [A(i, 0) for i in range(6)]
            ev.add_eval_batch(archs)
            ev.wait_all()
            recs = ev.get_finished_evals()
        finally:
            ev.shutdown()
        assert len(recs) == 6
        failed = [r for r in recs if r.reward == RewardModel.FAILURE_REWARD]
        assert len(failed) == 3 == ev.num_failed
