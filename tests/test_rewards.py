"""Unit tests for reward models: real-training and surrogate."""

import numpy as np
import pytest

from repro.hpc.costmodel import TrainingCostModel
from repro.nas.arch import Architecture
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward, TrainingReward, arch_seed
from repro.nas.spaces import combo_small


@pytest.fixture(scope="module")
def space():
    return combo_small()


@pytest.fixture(scope="module")
def surrogate(space):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(),
                           epochs=1, train_fraction=0.1, timeout=600.0,
                           seed=11)


class TestArchSeed:
    def test_deterministic(self):
        a = Architecture("s", (1, 2))
        assert arch_seed(0, 1, a) == arch_seed(0, 1, a)

    def test_varies_with_agent(self):
        a = Architecture("s", (1, 2))
        assert arch_seed(0, 1, a) != arch_seed(0, 2, a)

    def test_varies_with_arch(self):
        assert arch_seed(0, 1, Architecture("s", (1, 2))) != \
            arch_seed(0, 1, Architecture("s", (2, 1)))


class TestTrainingReward:
    def test_reward_is_validation_metric(self, small_combo):
        rm = TrainingReward(small_combo, epochs=2)
        arch = small_combo.space.decode([1] * 9 + [0] + [1] * 3)
        res = rm.evaluate(arch)
        assert -1.0 <= res.reward <= 1.0
        assert res.params == small_combo.count_params(arch.choices)
        assert res.duration > 0

    def test_deterministic_per_agent(self, small_combo):
        rm = TrainingReward(small_combo, epochs=1)
        arch = small_combo.space.decode([1] * 9 + [0] + [1] * 3)
        r1 = rm.evaluate(arch, agent_seed=1).reward
        r2 = rm.evaluate(arch, agent_seed=1).reward
        assert r1 == r2

    def test_agent_specific_initialization_changes_reward(self, small_combo):
        """§5: the same architecture evaluated by different agents gets
        different rewards (agent-specific random weight init)."""
        rm = TrainingReward(small_combo, epochs=1)
        arch = small_combo.space.decode([1] * 9 + [0] + [1] * 3)
        r1 = rm.evaluate(arch, agent_seed=1).reward
        r2 = rm.evaluate(arch, agent_seed=2).reward
        assert r1 != r2

    def test_reward_floored_at_failure(self, small_combo):
        rm = TrainingReward(small_combo, epochs=1)
        # an arch that trains terribly still reports >= -1
        for choices in ([12] * 9 + [0] + [12] * 3, [3] * 9 + [0] + [3] * 3):
            res = rm.evaluate(small_combo.space.decode(choices))
            assert res.reward >= -1.0


class TestSurrogateReward:
    def test_deterministic(self, space, surrogate):
        arch = space.decode([9] * 9 + [0] + [9] * 3)
        r1 = surrogate.evaluate(arch, agent_seed=3)
        r2 = surrogate.evaluate(arch, agent_seed=3)
        assert r1 == r2

    def test_agent_noise(self, space, surrogate):
        arch = space.decode([9] * 9 + [0] + [9] * 3)
        rewards = {surrogate.evaluate(arch, agent_seed=i).reward
                   for i in range(5)}
        assert len(rewards) == 5

    def test_reward_bounded(self, space, surrogate, rng):
        for _ in range(50):
            arch = space.random_architecture(rng)
            r = surrogate.evaluate(arch, agent_seed=0)
            assert -1.0 <= r.reward <= 1.0

    def test_params_exact(self, space, surrogate):
        from repro.nas.builder import count_parameters
        arch = space.decode([9] * 9 + [0] + [9] * 3)
        assert surrogate.params_of(arch) == count_parameters(
            space, arch.choices, COMBO_PAPER_SHAPES, combo_head())

    def test_timeout_truncates_duration_and_penalizes(self, space):
        cm = TrainingCostModel.combo_paper()
        slow = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(), cm,
                               train_fraction=1.0, timeout=600.0, seed=11)
        fast = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(), cm,
                               train_fraction=0.05, timeout=600.0, seed=11)
        big = space.decode([9] * 9 + [0] + [9] * 3)  # Dense(1000) chain, ~17M
        r_slow = slow.evaluate(big, agent_seed=0)
        r_fast = fast.evaluate(big, agent_seed=0)
        assert r_slow.timed_out and not r_fast.timed_out
        assert r_slow.duration == 600.0
        assert r_slow.reward < r_fast.reward

    def test_no_timeout_when_disabled(self, space):
        cm = TrainingCostModel.combo_paper()
        rm = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(), cm,
                             train_fraction=1.0, timeout=None, seed=11)
        big = space.decode([9] * 9 + [5] + [9] * 3)
        res = rm.evaluate(big, agent_seed=0)
        assert not res.timed_out
        assert res.duration > 600.0

    def test_fidelity_raises_noiseless_reward(self, space, surrogate):
        arch = space.decode([1] * 9 + [0] + [1] * 3)
        assert surrogate.noiseless_reward(arch, train_fraction=0.4) > \
            surrogate.noiseless_reward(arch, train_fraction=0.1)

    def test_same_seed_same_landscape(self, space):
        cm = TrainingCostModel.combo_paper()
        a = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(), cm,
                            seed=5)
        b = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(), cm,
                            seed=5)
        arch = space.decode([4] * 9 + [2] + [4] * 3)
        assert a.quality(arch) == b.quality(arch)

    def test_different_seed_different_landscape(self, space):
        cm = TrainingCostModel.combo_paper()
        a = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(), cm,
                            seed=5)
        b = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(), cm,
                            seed=6)
        arch = space.decode([4] * 9 + [2] + [4] * 3)
        assert a.quality(arch) != b.quality(arch)

    def test_capacity_prior_prefers_target_size(self, space):
        cm = TrainingCostModel.combo_paper()
        rm = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(), cm,
                             seed=0)
        small = space.decode([0] * 13)       # all Identity
        target = space.decode([1] * 9 + [0] + [1] * 3)      # Dense(100) chain
        assert np.log10(max(rm.params_of(small), 1)) < rm.log_params_opt
        # the capacity bonus moves quality toward the optimum band
        q_gap = rm.quality(target) - rm.quality(small)
        assert np.isfinite(q_gap)

    def test_invalid_fraction(self, space):
        cm = TrainingCostModel.combo_paper()
        with pytest.raises(ValueError):
            SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(), cm,
                            train_fraction=0.0)


class TestTrainingRewardRobustness:
    def test_fit_blowup_becomes_failure_reward(self, small_combo,
                                               monkeypatch):
        """Numerical explosion mid-training surfaces FAILURE_REWARD
        instead of crashing the evaluating agent."""
        import repro.rewards.training as training_mod

        class ExplodingTrainer:
            def __init__(self, **kwargs):
                pass

            def fit(self, *args, **kwargs):
                raise FloatingPointError("overflow encountered in matmul")

        monkeypatch.setattr(training_mod, "Trainer", ExplodingTrainer)
        rm = TrainingReward(small_combo, epochs=1)
        arch = small_combo.space.decode([1] * 9 + [0] + [1] * 3)
        res = rm.evaluate(arch)
        assert res.reward == rm.FAILURE_REWARD
        assert res.params > 0            # build succeeded; fit blew up
        assert res.duration >= 0.0

    def test_overflow_during_fit_also_caught(self, small_combo,
                                             monkeypatch):
        import repro.rewards.training as training_mod

        class OverflowingTrainer:
            def __init__(self, **kwargs):
                pass

            def fit(self, *args, **kwargs):
                raise OverflowError("inf in loss")

        monkeypatch.setattr(training_mod, "Trainer", OverflowingTrainer)
        rm = TrainingReward(small_combo, epochs=1)
        arch = small_combo.space.decode([1] * 9 + [0] + [1] * 3)
        assert rm.evaluate(arch).reward == rm.FAILURE_REWARD

    def test_build_floating_point_error_caught(self, small_combo,
                                               monkeypatch):
        import repro.rewards.training as training_mod

        def exploding_compile(*args, **kwargs):
            raise FloatingPointError("degenerate initialization")

        monkeypatch.setattr(training_mod, "compile_architecture",
                            exploding_compile)
        rm = TrainingReward(small_combo, epochs=1)
        arch = small_combo.space.decode([1] * 9 + [0] + [1] * 3)
        res = rm.evaluate(arch)
        assert res.reward == rm.FAILURE_REWARD
        assert res.params == 0           # never got past the build
