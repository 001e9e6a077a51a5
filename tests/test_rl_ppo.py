"""Unit tests for the PPO updater."""

import numpy as np
import pytest

from repro.rl import ppo
from repro.rl.policy import LSTMPolicy
from repro.rl.ppo import PPOConfig, PPOUpdater

DIMS = [4, 4, 4]


class TestConfig:
    def test_defaults_match_paper(self):
        assert ppo._CLIP == 0.2
        assert PPOConfig().epochs == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            PPOConfig(epochs=0)


class TestUpdate:
    def test_improves_action_zero_reward(self, rng):
        pol = LSTMPolicy(DIMS, seed=0)
        upd = PPOUpdater(pol, PPOConfig(lr=5e-3))
        first, last = None, None
        for it in range(50):
            ro = pol.sample(16, rng)
            rewards = (ro.actions == 0).mean(axis=1)
            upd.update(ro, rewards)
            if it < 5:
                first = rewards.mean() if first is None else first
            last = rewards.mean()
        assert last > first + 0.3

    def test_reward_length_validated(self, rng):
        pol = LSTMPolicy(DIMS, seed=0)
        upd = PPOUpdater(pol)
        ro = pol.sample(4, rng)
        with pytest.raises(ValueError):
            upd.update(ro, np.zeros(3))

    def test_stats_populated(self, rng):
        pol = LSTMPolicy(DIMS, seed=0)
        upd = PPOUpdater(pol)
        ro = pol.sample(8, rng)
        stats = upd.update(ro, rng.random(8))
        assert np.isfinite(stats.policy_loss)
        assert stats.value_loss >= 0
        assert stats.entropy > 0
        assert 0.0 <= stats.clip_fraction <= 1.0
        assert stats.grad_norm >= 0

    def test_params_change(self, rng):
        pol = LSTMPolicy(DIMS, seed=0)
        upd = PPOUpdater(pol)
        before = pol.get_flat().copy()
        ro = pol.sample(8, rng)
        upd.update(ro, rng.random(8))
        assert not np.allclose(pol.get_flat(), before)

    def test_uniform_rewards_small_movement(self, rng):
        """With identical rewards, normalized advantages are ~0 and the
        update should barely move the policy."""
        pol = LSTMPolicy(DIMS, seed=0)
        upd = PPOUpdater(pol, PPOConfig(entropy_coef=0.0))
        before = pol.get_flat().copy()
        ro = pol.sample(8, rng)
        upd.update(ro, np.full(8, 0.5))
        drift = np.abs(pol.get_flat() - before).max()
        assert drift < 0.05

    def test_update_delta_matches_param_change(self, rng):
        pol = LSTMPolicy(DIMS, seed=0)
        upd = PPOUpdater(pol)
        before = pol.get_flat().copy()
        ro = pol.sample(8, rng)
        delta, _ = upd.update_delta(ro, rng.random(8))
        np.testing.assert_allclose(pol.get_flat(), before + delta)


class TestGAE:
    def test_default_equals_terminal_return_baseline(self, rng):
        pol = LSTMPolicy(DIMS, seed=0)
        upd = PPOUpdater(pol)  # gamma = lambda = 1
        ro = pol.sample(5, rng)
        rewards = rng.random(5)
        adv = upd._gae(rewards, ro.values)
        np.testing.assert_allclose(adv, rewards[:, None] - ro.values)


class TestClipMath:
    def test_clip_limits_ratio_influence(self, rng):
        """After the first epoch moves the policy, later epochs see
        clipped ratios; clip_fraction should become nonzero under large
        advantage signals."""
        pol = LSTMPolicy(DIMS, seed=0)
        upd = PPOUpdater(pol, PPOConfig(lr=5e-2, epochs=8))
        ro = pol.sample(16, rng)
        rewards = (ro.actions == 0).mean(axis=1) * 10
        stats = upd.update(ro, rewards)
        assert stats.clip_fraction > 0.0
