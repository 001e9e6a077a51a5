"""Structural and seam-level tests for the composable search runtime.

The refactor's shape is part of its contract: the runner is a thin
composition root (no method over ~60 lines, no `_agent_body` monolith),
and exchange modes / health / chaos / checkpointing each live behind
their own seam.  These tests pin that shape so it cannot silently
regress back into a monolith.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.search.runner as runner_module
from repro.evaluator import EvalBroker, EvalCache, SerialEvaluator
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.rewards.base import EvalResult
from repro.search import (EXCHANGE_STRATEGIES, A2CExchange, A3CExchange,
                          NasSearch, RandomExchange, SearchConfig,
                          build_exchange)

MAX_METHOD_LINES = 60


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_surrogate(space, seed=7):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), epochs=1,
                           train_fraction=0.1, timeout=600.0, seed=seed)


def small_config(method, minutes=40, **kwargs):
    defaults = dict(method=method, allocation=NodeAllocation(32, 4, 3),
                    wall_time=minutes * 60.0, seed=1)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


class TestRunnerShape:
    def _runner_functions(self):
        source = Path(runner_module.__file__).read_text()
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def test_agent_body_is_gone(self):
        assert not hasattr(NasSearch, "_agent_body")
        names = {fn.name for fn in self._runner_functions()}
        assert "_agent_body" not in names

    def test_no_method_exceeds_line_budget(self):
        for fn in self._runner_functions():
            body_start = fn.body[0].lineno
            if isinstance(fn.body[0], ast.Expr) and \
                    isinstance(fn.body[0].value, ast.Constant):
                # docstrings don't count against the budget
                body_start = (fn.body[1].lineno if len(fn.body) > 1
                              else fn.end_lineno)
            length = fn.end_lineno - body_start + 1
            assert length <= MAX_METHOD_LINES, \
                f"{fn.name} is {length} lines (> {MAX_METHOD_LINES})"


class TestExchangeSeam:
    def test_registry_covers_methods(self):
        assert set(EXCHANGE_STRATEGIES) == {"a3c", "a2c", "rdm"}
        assert EXCHANGE_STRATEGIES["a2c"] is A2CExchange
        assert EXCHANGE_STRATEGIES["a3c"] is A3CExchange
        assert EXCHANGE_STRATEGIES["rdm"] is RandomExchange

    def test_config_validates_against_registry(self):
        with pytest.raises(ValueError, match="unknown method"):
            SearchConfig(method="elastic")

    @pytest.mark.parametrize("method,ps_mode", [("a2c", "sync"),
                                                ("a3c", "async")])
    def test_build_exchange_server_modes(self, space, method, ps_mode):
        from repro.hpc.sim import Simulator
        exchange = build_exchange(Simulator(), small_config(method), space)
        assert exchange.ps is not None
        assert exchange.ps.mode == ps_mode

    def test_rdm_has_no_server(self, space):
        from repro.hpc.sim import Simulator
        exchange = build_exchange(Simulator(), small_config("rdm"), space)
        assert exchange.ps is None
        assert not type(exchange).learns
        exchange.leave()                # lifecycle calls are no-ops
        exchange.rejoin(0)
        assert exchange.export_state() is None

    def test_runner_exposes_ps_through_exchange(self, space):
        search = NasSearch(space, make_surrogate(space),
                           small_config("a2c"))
        assert search.ps is search.exchange.ps


class TestBrokerSeam:
    def test_balsam_evaluator_is_a_broker(self, space):
        search = NasSearch(space, make_surrogate(space),
                           small_config("a3c"))
        assert all(isinstance(ev, EvalBroker) for ev in search.evaluators)

    def test_serial_has_lifecycle_surface(self, space):
        ev = SerialEvaluator(make_surrogate(space))
        with ev:                        # context manager + no-op barrier
            ev.wait_all()
        ev.shutdown()                   # idempotent

    def test_serial_converts_exceptions_to_failure_records(self, space):
        class Exploding:
            def evaluate(self, arch, agent_seed=0):
                raise RuntimeError("boom")

        ev = SerialEvaluator(Exploding(), agent_id=0)
        archs = [space.decode(np.zeros(len(space.action_dims), dtype=int))]
        ev.add_eval_batch(archs)
        recs = ev.get_finished_evals()
        assert ev.num_failed == 1
        assert recs[0].reward == -1.0
        assert len(ev.cache) == 0       # failures are never cached


class TestCacheCounterRestore:
    def test_restore_with_counters(self):
        cache = EvalCache()
        entries = [(("k",), EvalResult(0.5, 1.0, 10))]
        cache.restore(entries, hits=3, misses=7)
        assert (cache.hits, cache.misses, len(cache)) == (3, 7, 1)

    def test_restore_without_counters_keeps_them(self):
        cache = EvalCache()
        cache.hits, cache.misses = 2, 5
        cache.restore([])
        assert (cache.hits, cache.misses) == (2, 5)

    def test_broker_restores_cache_tally(self, space):
        ev = SerialEvaluator(make_surrogate(space), agent_id=0)
        ev.restore_counters(num_submitted=10, num_cache_hits=4,
                            num_failed=1)
        assert (ev.num_submitted, ev.num_cache_hits, ev.num_failed) \
            == (10, 4, 1)
        assert (ev.cache.hits, ev.cache.misses) == (4, 6)

    def test_checkpoint_resume_restores_cache_tally(self, space):
        cfg = small_config("a3c", checkpoint_interval=300.0)
        search = NasSearch(space, make_surrogate(space), cfg)
        search.run()
        ckpt = search.checkpoints[1]
        resumed = NasSearch(space, make_surrogate(space), cfg,
                            resume_from=ckpt)
        for agent in ckpt.agents:
            if agent.done or agent.boundary is None:
                continue
            cache = resumed.evaluators[agent.agent_id].cache
            assert cache.hits == agent.boundary.num_cache_hits
            assert cache.misses == (agent.boundary.num_submitted
                                    - agent.boundary.num_cache_hits)

