"""End-to-end tests for the multi-agent NAS search runner."""

import numpy as np
import pytest

from repro.analytics import best_so_far_trajectory, top_k_architectures
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.rewards.base import EvalResult, RewardModel
from repro.search import NasSearch, SearchConfig, run_search


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_surrogate(space, seed=7, **kwargs):
    defaults = dict(epochs=1, train_fraction=0.1, timeout=600.0,
                    log_params_opt=6.5, seed=seed)
    defaults.update(kwargs)
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), **defaults)


def small_config(method, minutes=60, **kwargs):
    defaults = dict(method=method,
                    allocation=NodeAllocation(32, 4, 3),
                    wall_time=minutes * 60.0, seed=1)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


class TestConfig:
    def test_method_validated(self):
        with pytest.raises(ValueError):
            SearchConfig(method="dqn")

    def test_wall_time_validated(self):
        with pytest.raises(ValueError):
            SearchConfig(wall_time=0.0)

    def test_defaults_match_paper(self, space):
        cfg = SearchConfig()
        assert cfg.allocation == NodeAllocation.paper_256()
        assert cfg.wall_time == 360 * 60
        # the built controller is the paper's LSTM(32) with PPO
        # epochs=4 (clip 0.2 is a repro.rl.ppo constant) at the
        # calibrated lr=6e-3, and every agent starts from one network
        search = NasSearch(space, make_surrogate(space),
                           small_config("a2c"))
        for policy, updater in zip(search.policies, search.updaters):
            assert policy.hidden == 32
            assert policy.embedding.value.shape[1] == 16
            assert updater.config.epochs == 4
            assert updater.config.lr == 6e-3
        first = search.policies[0].get_flat()
        for policy in search.policies[1:]:
            np.testing.assert_array_equal(policy.get_flat(), first)


class TestRuns:
    @pytest.mark.parametrize("method", ["a3c", "a2c", "rdm"])
    def test_run_produces_records(self, space, method):
        res = run_search(space, make_surrogate(space),
                         small_config(method, minutes=40))
        assert res.num_evaluations > 0
        assert res.end_time <= 40 * 60
        for rec in res.records:
            assert -1.0 <= rec.reward <= 1.0
            assert 0 <= rec.time <= res.end_time + 1e-9
            assert rec.agent_id in range(4)

    def test_deterministic_given_seed(self, space):
        results = []
        for _ in range(2):
            res = run_search(space, make_surrogate(space),
                             small_config("a3c", minutes=30))
            results.append([(r.time, r.arch.key, r.reward)
                            for r in res.records])
        assert results[0] == results[1]

    def test_seed_changes_run(self, space):
        r1 = run_search(space, make_surrogate(space),
                        small_config("a3c", minutes=30, seed=1))
        r2 = run_search(space, make_surrogate(space),
                        small_config("a3c", minutes=30, seed=2))
        k1 = [r.arch.key for r in r1.records]
        k2 = [r.arch.key for r in r2.records]
        assert k1 != k2

    def test_rdm_does_not_learn(self, space):
        res = run_search(space, make_surrogate(space),
                         small_config("rdm", minutes=120))
        recs = sorted(res.records, key=lambda r: r.time)
        half = len(recs) // 2
        first = np.mean([r.reward for r in recs[:half]])
        second = np.mean([r.reward for r in recs[half:]])
        assert abs(second - first) < 0.1

    def test_a3c_learns_beyond_rdm(self, space):
        """§5.1's headline: A3C shows learning capability, RDM does not.
        Compare late-run mean rewards under identical settings."""
        cfg_kwargs = dict(minutes=240)
        a3c = run_search(space, make_surrogate(space),
                         small_config("a3c", **cfg_kwargs))
        rdm = run_search(space, make_surrogate(space),
                         small_config("rdm", **cfg_kwargs))

        def late_mean(res):
            recs = sorted(res.records, key=lambda r: r.time)
            tail = recs[int(0.7 * len(recs)):]
            return float(np.mean([r.reward for r in tail]))

        assert late_mean(a3c) > late_mean(rdm) + 0.05

    def test_a3c_more_iterations_than_a2c(self, space):
        """A3C avoids the synchronous barrier and completes more
        evaluations in the same wall time (§5.1)."""
        a3c = run_search(space, make_surrogate(space),
                         small_config("a3c", minutes=120))
        a2c = run_search(space, make_surrogate(space),
                         small_config("a2c", minutes=120))
        assert a3c.num_evaluations >= a2c.num_evaluations

    def test_utilization_bounded(self, space):
        res = run_search(space, make_surrogate(space),
                         small_config("a3c", minutes=60))
        u = res.cluster.mean_utilization(res.end_time)
        assert 0.0 < u <= 1.0
        for _, ub in res.utilization_trace(bin_minutes=10):
            assert 0.0 <= ub <= 1.0


class TestConvergenceStop:
    def test_all_cached_stops_search(self, space):
        """With a deterministic constant-arch policy substitute, the
        cache converges instantly; emulate via a reward model and a
        1-option space."""
        from repro.nas.space import Block, Cell, Structure
        from repro.nas.nodes import VariableNode
        from repro.nas.ops import DenseOp

        s = Structure("one", ["x"], output_sources="last_cell")
        c = Cell("C0")
        b = Block("B0", inputs=["x"])
        b.add_node(VariableNode("N0", [DenseOp(4)]))  # single option
        c.add_block(b)
        s.add_cell(c)
        s.validate()

        class Fixed(RewardModel):
            def evaluate(self, arch, agent_seed=0):
                return EvalResult(0.5, 60.0, 100)

        cfg = SearchConfig(method="rdm", allocation=NodeAllocation(16, 2, 2),
                           wall_time=3600 * 10, convergence_patience=3)
        res = run_search(s, Fixed(), cfg)
        assert res.converged
        assert res.end_time < cfg.wall_time
        assert res.unique_architectures == 1


class TestResultUtilities:
    @pytest.fixture(scope="class")
    def result(self, space):
        return run_search(space, make_surrogate(space),
                          small_config("a3c", minutes=60))

    def test_best_is_max(self, result):
        assert result.best().reward == max(r.reward for r in result.records)

    def test_top_k_distinct_and_sorted(self, result):
        top = top_k_architectures(result.records, 10)
        keys = [t.arch.key for t in top]
        assert len(keys) == len(set(keys))
        rewards = [t.reward for t in top]
        assert rewards == sorted(rewards, reverse=True)

    def test_reward_trajectory_monotone(self, result):
        traj = best_so_far_trajectory(result.records)
        assert (np.diff(traj[:, 1]) >= 0).all()
        assert (np.diff(traj[:, 0]) >= 0).all()

    def test_empty_records_raise(self, space):
        from repro.search.base import SearchResult
        res = SearchResult(SearchConfig(), [], None, 1.0, False, 0)
        with pytest.raises(ValueError):
            res.best()
