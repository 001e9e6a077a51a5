"""Supervised process-pool evaluator: crash detection and respawn,
deadline kills, poison-job quarantine, graceful degradation, and the
end-to-end chaos profile.

Everything here spawns real worker processes, so the module is
``proc``-marked (excluded from ``make test-fast``, run by ``make
chaos``) and guarded by the conftest SIGALRM watchdog.  Faults are
injected with :class:`repro.search.chaos.ChaosEvalModel` — a reward
model that really ``os._exit``s and really hangs — because it lives in
an importable ``src`` module the spawn children can re-import.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.evaluator import ProcConfig, ProcessEvaluator
from repro.evaluator.process import _POISON_THRESHOLD
from repro.events import (QUARANTINE, WORKER_CRASH, WORKER_RESPAWN,
                          WORKER_SPAWN, WORKER_TIMEOUT, RecordingSink)
from repro.hpc import TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.rewards.base import RewardModel
from repro.search import chaos
from repro.search.chaos import ChaosEvalModel

pytestmark = pytest.mark.proc


@pytest.fixture(scope="module")
def space():
    return combo_small()


@pytest.fixture(scope="module")
def archs(space):
    rng = np.random.default_rng(5)
    dims = np.array(space.action_dims)
    return [space.decode(rng.integers(0, dims)) for _ in range(8)]


def make_model(space, **chaos):
    inner = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                            TrainingCostModel.combo_paper(), epochs=1,
                            train_fraction=0.1, timeout=600.0, seed=7)
    return ChaosEvalModel(inner, **chaos) if chaos else inner


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ProcConfig(workers=0)
        with pytest.raises(ValueError):
            ProcConfig(job_deadline=-1.0)
        with pytest.raises(ValueError):
            ProcConfig(max_respawns=-1)


class TestCrashSupervision:
    def test_crash_always_arch_is_quarantined(self, space, archs):
        """An arch that kills every worker it touches gets the failure
        reward after _POISON_THRESHOLD distinct workers die — not an
        infinite respawn loop — and the stream shows the whole story."""
        sink = RecordingSink()
        ev = ProcessEvaluator(
            make_model(space, crash_frac=1.0), 0,
            config=ProcConfig(workers=2, retry_backoff=0.01), sink=sink)
        with ev:
            ev.add_eval_batch(archs[:1])
            ev.wait_all(timeout=120)
            recs = ev.get_finished_evals()
        assert len(recs) == 1
        assert recs[0].reward == RewardModel.FAILURE_REWARD
        assert ev.num_quarantined == 1
        assert ev.num_worker_crashes >= _POISON_THRESHOLD
        assert ev.num_failed == 1
        kinds = set(sink.kinds())
        assert {WORKER_SPAWN, WORKER_CRASH, WORKER_RESPAWN,
                QUARANTINE} <= kinds

    def test_quarantined_arch_short_circuits(self, space, archs):
        """A restored quarantine record answers resubmissions without
        ever touching the pool."""
        poisoned = ProcessEvaluator(
            make_model(space, crash_frac=1.0), 0,
            config=ProcConfig(workers=2, retry_backoff=0.01))
        with poisoned:
            poisoned.add_eval_batch(archs[:1])
            poisoned.wait_all(timeout=120)
            poisoned.get_finished_evals()
        snapshot = poisoned.quarantine_snapshot()
        assert snapshot and snapshot[0][0] == archs[0].space

        fresh = ProcessEvaluator(make_model(space, crash_frac=1.0), 0,
                                 config=ProcConfig(workers=1))
        fresh.restore_quarantine(snapshot)
        with fresh:
            fresh.add_eval_batch(archs[:1])
            fresh.wait_all(timeout=30)
            recs = fresh.get_finished_evals()
        assert recs[0].reward == RewardModel.FAILURE_REWARD
        assert fresh.num_worker_crashes == 0
        assert fresh.quarantined[archs[0].key]["resubmits"] == 1

    def test_external_sigkill_retries_to_success(self, space, archs):
        """A worker SIGKILLed mid-evaluation is detected, its job
        retried on a respawned worker, and the true reward delivered."""
        ev = ProcessEvaluator(
            make_model(space, eval_seconds=1.5), 0,
            config=ProcConfig(workers=1, retry_backoff=0.01))
        with ev:
            ev.add_eval_batch(archs[2:3])
            time.sleep(0.5)
            pids = ev.worker_pids()
            assert pids
            os.kill(pids[0], signal.SIGKILL)
            ev.wait_all(timeout=120)
            recs = ev.get_finished_evals()
        assert len(recs) == 1
        assert recs[0].reward > RewardModel.FAILURE_REWARD
        assert ev.num_worker_crashes >= 1
        assert ev.num_respawns >= 1
        assert ev.num_failed == 0


class TestDeadlines:
    def test_hung_eval_is_killed_and_quarantined(self, space, archs):
        """A hang beats heartbeats (the beat thread stays alive), so the
        per-job deadline is what catches it: kill, retry, quarantine."""
        sink = RecordingSink()
        ev = ProcessEvaluator(
            make_model(space, hang_frac=1.0, hang_seconds=60.0), 0,
            config=ProcConfig(workers=2, job_deadline=1.0,
                              retry_backoff=0.01), sink=sink)
        start = time.monotonic()
        with ev:
            ev.add_eval_batch(archs[1:2])
            ev.wait_all(timeout=120)
            recs = ev.get_finished_evals()
        elapsed = time.monotonic() - start
        assert recs[0].reward == RewardModel.FAILURE_REWARD
        assert ev.num_worker_timeouts >= _POISON_THRESHOLD
        assert ev.num_quarantined == 1
        assert WORKER_TIMEOUT in sink.kinds()
        assert elapsed < 60.0, "deadline did not preempt the hang"


class TestGracefulDegradation:
    def test_pool_exhaustion_falls_back_inline(self, space, archs):
        """With the respawn budget at zero, killing the only worker
        shrinks the pool to nothing — and the remaining jobs complete
        in-process instead of the evaluator dying."""
        ev = ProcessEvaluator(
            make_model(space, eval_seconds=1.0), 0,
            config=ProcConfig(workers=1, max_respawns=0,
                              retry_backoff=0.01))
        with ev:
            ev.add_eval_batch(archs[3:5])
            time.sleep(0.3)
            pids = ev.worker_pids()
            assert pids
            os.kill(pids[0], signal.SIGKILL)
            ev.wait_all(timeout=120)
            recs = ev.get_finished_evals()
        assert len(recs) == 2
        assert all(r.reward > RewardModel.FAILURE_REWARD for r in recs)
        assert ev.pool_size == 0
        assert ev.num_inline_evals >= 1

    def test_inline_matches_pool_rewards(self, space, archs):
        """Inline fallback evaluates the same pure function, so its
        rewards are bit-identical to the pool's."""
        pooled = ProcessEvaluator(make_model(space), 0,
                                  config=ProcConfig(workers=2))
        with pooled:
            pooled.add_eval_batch(archs[:4])
            pooled.wait_all(timeout=120)
            pool_rewards = {r.arch.key: r.reward
                            for r in pooled.get_finished_evals()}
        inline = ProcessEvaluator(make_model(space), 0,
                                  config=ProcConfig(workers=1,
                                                    max_respawns=0))
        with inline:
            # start the pool, then shrink it before dispatch so
            # everything runs inline
            inline._start_pool()
            for worker in list(inline._workers.values()):
                worker.proc.kill()
            time.sleep(0.2)
            inline.add_eval_batch(archs[:4])
            inline.wait_all(timeout=120)
            recs = inline.get_finished_evals()
        assert inline.num_inline_evals == 4
        assert {r.arch.key: r.reward for r in recs} == pool_rewards


class TestChaosProfile:
    def test_proc_matrix_invariants(self):
        """The end-to-end chaos profile: external SIGKILLs + crashing +
        hanging evals over a real search, all invariants green."""
        rows = chaos.run("proc", seed=1)
        assert chaos.check("proc", rows) == []
        row = rows[0]
        assert row["evaluations"] > 0
        assert row["respawns"] >= 1
        assert row["quarantined"] >= 1
