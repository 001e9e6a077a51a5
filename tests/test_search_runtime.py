"""Structural and seam-level tests for the composable search runtime.

The refactor's shape is part of its contract: the runner is a thin
composition root (no method over ~60 lines, no `_agent_body` monolith),
and proposers (the RL ones with their exchange) / health / chaos /
checkpointing each live behind their own seam.  These tests pin that
shape so it cannot silently regress back into a monolith.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.search.runner as runner_module
from repro.evaluator import (BalsamEvaluator, BalsamService, Evaluator,
                             ProcessEvaluator, SerialEvaluator,
                             ThreadEvaluator)
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.hpc.cluster import Cluster
from repro.hpc.sim import Simulator
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import (SEARCH_METHODS, A2CProposer, A3CProposer,
                          NasSearch, RandomProposer, SearchConfig,
                          build_proposer)

MAX_METHOD_LINES = 60


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_surrogate(space, seed=7, cls=SurrogateReward):
    return cls(space, COMBO_PAPER_SHAPES, combo_head(),
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
    """The parameter-server exchange is the last step of the policy
    proposer's ``observe``; proposers without a server make the
    runner's lifecycle and checkpoint calls no-ops."""

    def test_registry_covers_methods(self):
        assert SEARCH_METHODS["a2c"].proposer is A2CProposer
        assert SEARCH_METHODS["a3c"].proposer is A3CProposer
        assert SEARCH_METHODS["rdm"].proposer is RandomProposer

    def test_config_validates_against_registry(self):
        with pytest.raises(ValueError, match="unknown method"):
            SearchConfig(method="elastic")

    @pytest.mark.parametrize("method,ps_mode", [("a2c", "sync"),
                                                ("a3c", "async")])
    def test_build_proposer_server_modes(self, space, method, ps_mode):
        proposer = build_proposer(Simulator(), small_config(method), space)
        assert proposer.ps is not None
        assert proposer.ps.mode == ps_mode
        assert proposer.learns

    def test_rdm_has_no_server(self, space):
        proposer = build_proposer(Simulator(), small_config("rdm"), space)
        assert proposer.ps is None
        assert isinstance(proposer, RandomProposer)
        assert not proposer.learns
        proposer.leave()                # lifecycle calls are no-ops
        proposer.rejoin(0)
        assert proposer.export_state() is None
        proposer.restore_state({"mode": "async"})

    def test_runner_exposes_ps_through_exchange(self, space):
        search = NasSearch(space, make_surrogate(space),
                           small_config("a2c"))
        assert search.ps is search.proposer.ps
        assert not hasattr(search, "exchange")


class OddFirstChoiceRaises(SurrogateReward):
    """A reward model that raises on every odd first choice."""

    def evaluate(self, arch, agent_seed=0):
        if arch.choices[0] % 2:
            raise RuntimeError("odd first choice")
        return super().evaluate(arch, agent_seed)


def make_evaluator(backend, reward_model):
    if backend == "serial":
        return SerialEvaluator(reward_model, agent_id=0)
    if backend == "thread":
        return ThreadEvaluator(reward_model, agent_id=0, max_workers=2)
    sim = Simulator()
    return BalsamEvaluator(BalsamService(sim, Cluster(sim, 2)),
                           reward_model, agent_id=0)


class TestBrokerSeam:
    def test_balsam_evaluator_is_a_broker(self, space):
        search = NasSearch(space, make_surrogate(space),
                           small_config("a3c"))
        assert all(isinstance(ev, Evaluator) for ev in search.evaluators)

    @pytest.mark.parametrize("cls", [SerialEvaluator, ThreadEvaluator,
                                     ProcessEvaluator, BalsamEvaluator])
    def test_backends_inherit_the_one_submit_loop(self, cls):
        assert issubclass(cls, Evaluator)
        assert "add_eval_batch" not in vars(cls)

    def test_serial_has_lifecycle_surface(self, space):
        ev = SerialEvaluator(make_surrogate(space))
        with ev:                        # context manager + no-op barrier
            ev.wait_all()
        ev.shutdown()                   # idempotent

    @pytest.mark.parametrize("backend", ["serial", "thread", "balsam"])
    def test_converts_exceptions_to_failure_records(self, space, backend):
        class Exploding:
            def evaluate(self, arch, agent_seed=0):
                raise RuntimeError("boom")

        ev = make_evaluator(backend, Exploding())
        archs = [space.decode(np.zeros(len(space.action_dims), dtype=int))]
        done = ev.add_eval_batch(archs)
        ev.wait_all()
        recs = ev.get_finished_evals()
        ev.shutdown()
        assert ev.num_failed == 1
        assert [rec.reward for rec in recs] == [-1.0]
        assert len(ev.cache) == 0       # failures are never cached
        if backend == "balsam":
            # delivered at submit, no job; the rejected batch still
            # costs the launcher's round trip in virtual time
            service = ev.service
            assert service.jobs == [] and recs[0].end_time == 0.0
            assert not done.triggered
            service.sim.run()
            assert done.triggered and service.sim.now == service.submit_latency

    def test_raising_reward_model_costs_balsam_no_agent(self, space):
        def probe(backend):
            reward = make_surrogate(space, cls=OddFirstChoiceRaises)
            cfg = small_config("rdm", allocation=NodeAllocation(9, 2, 3),
                               max_iterations=5, seed=0, backend=backend)
            return NasSearch(space, reward, cfg).run()

        serial, balsam = probe("serial"), probe("balsam")
        assert serial.failed_agents == [] and serial.num_failed_evals > 0
        assert balsam.failed_agents == []
        assert (balsam.num_evaluations, balsam.num_failed_evals) \
            == (serial.num_evaluations, serial.num_failed_evals)

    def test_rejected_balsam_batch_still_advances_the_clock(self, space):
        # A balsam search may run without max_iterations because its
        # batches cost virtual time.  A batch whose every submission is
        # rejected must too, or the search spins at one timestamp.
        class AlwaysRaises(SurrogateReward):
            calls = 0

            def evaluate(self, arch, agent_seed=0):
                AlwaysRaises.calls += 1
                if AlwaysRaises.calls > 20_000:
                    pytest.fail("the virtual clock stopped advancing")
                raise RuntimeError("shapes do not match")

        reward = make_surrogate(space, cls=AlwaysRaises)
        cfg = small_config("rdm", minutes=1,
                           allocation=NodeAllocation(9, 2, 3), seed=0)
        assert cfg.backend == "balsam" and cfg.max_iterations is None
        result = NasSearch(space, reward, cfg).run()
        assert result.failed_agents == []
        assert result.num_failed_evals > 0
        assert {r.reward for r in result.records} == {-1.0}
        assert max(r.time for r in result.records) <= cfg.wall_time
