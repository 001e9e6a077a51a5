"""Uniform evaluator lifecycle semantics across every backend.

The broker contract promises that serial / thread / Balsam / process
evaluators are drop-in interchangeable behind

    with make_evaluator() as ev:
        ev.add_eval_batch(archs); ev.wait_all()

so the lifecycle edges — ``shutdown()`` called twice, ``wait_all`` with
a timeout while stragglers are still running, context-manager cleanup —
must behave the same everywhere.  The process backend's variants are
``proc``-marked (they spawn real worker pools).
"""

import time

import numpy as np
import pytest

from repro.evaluator import (BalsamEvaluator, BalsamService, ProcConfig,
                             ProcessEvaluator, SerialEvaluator,
                             ThreadEvaluator)
from repro.hpc import TrainingCostModel
from repro.hpc.cluster import Cluster
from repro.hpc.sim import Simulator
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search.chaos import ChaosEvalModel

_SPACE = combo_small()


def make_surrogate(eval_seconds: float = 0.0):
    inner = SurrogateReward(_SPACE, COMBO_PAPER_SHAPES, combo_head(),
                            TrainingCostModel.combo_paper(), epochs=1,
                            train_fraction=0.1, timeout=600.0, seed=7)
    if eval_seconds > 0:
        return ChaosEvalModel(inner, eval_seconds=eval_seconds)
    return inner


def make_archs(n=3):
    rng = np.random.default_rng(11)
    dims = np.array(_SPACE.action_dims)
    return [_SPACE.decode(rng.integers(0, dims)) for _ in range(n)]


def make_serial(**kw):
    return SerialEvaluator(make_surrogate(), 0)


def make_thread(eval_seconds=0.0):
    return ThreadEvaluator(make_surrogate(eval_seconds), 0, max_workers=2)


def make_balsam(**kw):
    sim = Simulator()
    service = BalsamService(sim, Cluster(sim, 4))
    return BalsamEvaluator(service, make_surrogate(), 0)


def make_process(eval_seconds=0.0):
    return ProcessEvaluator(make_surrogate(eval_seconds), 0,
                            config=ProcConfig(workers=2))


INLINE_FACTORIES = [make_serial, make_thread, make_balsam]


@pytest.mark.parametrize("factory", INLINE_FACTORIES,
                         ids=["serial", "thread", "balsam"])
class TestLifecycleInline:
    def test_shutdown_is_idempotent(self, factory):
        ev = factory()
        ev.shutdown()
        ev.shutdown()       # second call must be a no-op, not an error

    def test_context_manager_shuts_down(self, factory):
        with factory() as ev:
            assert ev is not None
        ev.shutdown()       # __exit__ already shut down; still safe

    def test_wait_all_after_empty_submit(self, factory):
        ev = factory()
        ev.wait_all()
        ev.wait_all(timeout=0.01)
        assert ev.get_finished_evals() == []
        ev.shutdown()


class TestStragglersThread:
    def test_wait_all_timeout_returns_with_stragglers(self):
        """A timed-out wait returns control with work still in flight;
        a later unbounded wait completes it — nothing is lost."""
        ev = make_thread(eval_seconds=1.0)
        archs = make_archs(2)
        with ev:
            start = time.monotonic()
            ev.add_eval_batch(archs)
            ev.wait_all(timeout=0.05)
            assert time.monotonic() - start < 0.9, "timeout did not bound"
            done_early = len(ev.get_finished_evals())
            ev.wait_all()
            done_late = len(ev.get_finished_evals())
        assert done_early + done_late == len(archs)


@pytest.mark.proc
class TestLifecycleProcess:
    def test_shutdown_is_idempotent(self):
        ev = make_process()
        assert ev.pool_size == 0            # the pool starts with a job
        ev.add_eval_batch(make_archs(1))
        assert ev.pool_size == 2
        ev.wait_all(timeout=120)
        ev.shutdown()
        assert ev.pool_size == 0
        ev.shutdown()       # second call must be a no-op

    def test_context_manager_reaps_workers(self):
        with make_process() as ev:
            ev.add_eval_batch(make_archs(2))
            ev.wait_all(timeout=120)
            assert len(ev.get_finished_evals()) == 2
            procs = [w.proc for w in ev._workers.values()]
            assert all(p.is_alive() for p in procs)
        assert ev.pool_size == 0
        assert all(not p.is_alive() for p in procs)

    def test_wait_all_timeout_returns_with_stragglers(self):
        ev = make_process(eval_seconds=1.5)
        archs = make_archs(2)
        with ev:
            start = time.monotonic()
            ev.add_eval_batch(archs)
            ev.wait_all(timeout=0.2)
            assert time.monotonic() - start < 1.4, "timeout did not bound"
            done_early = len(ev.get_finished_evals())
            ev.wait_all()
            done_late = len(ev.get_finished_evals())
        assert done_early + done_late == len(archs)

    def test_wait_all_after_empty_submit(self):
        with make_process() as ev:
            ev.wait_all()
            ev.wait_all(timeout=0.01)
            assert ev.get_finished_evals() == []
