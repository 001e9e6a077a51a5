"""Tests for the in-library experiment harness (repro.experiments)."""

import numpy as np
import pytest

from repro import experiments as ex


class TestConfiguration:
    def test_quick_scale_defaults(self):
        # the test environment runs at quick scale
        assert ex.WALL_MINUTES > 0
        assert ex.TOP_K > 0
        assert ex.POST_EPOCHS > 0

    def test_allocation_preserves_structure(self):
        for nodes, mode in ((256, "agents"), (512, "workers"),
                            (1024, "agents")):
            alloc = ex.allocation(nodes, mode)
            assert alloc.num_agents >= 2
            assert alloc.workers_per_agent >= 2
            assert alloc.used_nodes <= alloc.total_nodes

    def test_agent_scaling_has_more_agents_than_worker_scaling(self):
        a = ex.allocation(1024, "agents")
        w = ex.allocation(1024, "workers")
        assert a.num_agents > w.num_agents
        assert w.workers_per_agent > a.workers_per_agent


class TestSurrogates:
    @pytest.mark.parametrize("problem", ["combo", "uno", "nt3"])
    def test_surrogate_constructs_per_problem(self, problem):
        rm = ex.surrogate_for(problem)
        arch = ex.space_for(problem).random_architecture(
            np.random.default_rng(0))
        res = rm.evaluate(arch, agent_seed=0)
        assert -1.0 <= res.reward <= 1.0
        assert res.duration > 0

    def test_combo_uses_ten_percent_data(self):
        assert ex.surrogate_for("combo").train_fraction == 0.1

    def test_uno_nt3_use_full_data(self):
        # §5: "For Uno and NT3, since the data sizes are smaller, the
        # full training data are used."
        assert ex.surrogate_for("uno").train_fraction == 1.0
        assert ex.surrogate_for("nt3").train_fraction == 1.0

    @pytest.mark.parametrize("problem,paper_fraction",
                             [("combo", 0.1), ("uno", 1.0), ("nt3", 1.0)])
    def test_explicit_fraction_is_used_as_given(self, problem,
                                                paper_fraction,
                                                monkeypatch):
        assert ex.surrogate_for(
            problem, train_fraction=0.4).train_fraction == 0.4
        # run_cached applies the same rule: an omitted fraction is the
        # paper's per-problem value, an explicit one is used as given
        monkeypatch.setattr(ex, "run_search",
                            lambda space, reward, cfg: reward)
        run = ex.run_cached.__wrapped__
        assert run(problem, "rdm").train_fraction == paper_fraction
        assert run(problem, "rdm", train_fraction=0.3).train_fraction == 0.3


class TestWorkingProblems:
    @pytest.mark.parametrize("problem", ["combo", "uno", "nt3"])
    def test_working_problem_constructs(self, problem):
        prob = ex.working_problem(problem)
        assert prob.name == problem
        assert len(prob.dataset.y_train) > 0

    def test_paper_scale_counts(self):
        assert ex.working_problem("combo").baseline_params(
            paper_scale=True) == 13_772_001
        assert ex.working_problem("uno").baseline_params(
            paper_scale=True) == 19_274_001


class TestPostTrainTop:
    def test_ratios_at_paper_dimensions(self):
        result = ex.run_cached("combo", "rdm", seed=99)
        report = ex.post_train_top("combo", result, k=3)
        assert report.baseline_params == 13_772_001
        for e in report.entries:
            # params are paper-dimension counts, far above working scale
            assert e.params > 10_000
            assert e.params_ratio == pytest.approx(
                13_772_001 / e.params)
            assert e.time_ratio > 0
