"""Unit tests for the PPO updater."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.nas.spaces import combo_small, nt3_small, uno_small
from repro.nn.config import dtype_scope
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


#: sha256 of the policy's numbers per (dtype, space, batch), recorded at
#: commit 0e1fe9a (before the fused pass's whole-sequence multipliers).
#: The fused LSTM pass promises bit-identity: a restructuring that keeps
#: every float operation's operands and order leaves these unchanged,
#: and any reassociation moves them.  They depend on the numpy/BLAS
#: build, like the perfbench reference fingerprints.
_POLICY_DIGESTS = {
    ("float32", "combo", 1): "3aa2ec8adfb25ba14783de30148fa43013eb3a3e6ca3fe2e6f1df8bff285219d",
    ("float32", "combo", 6): "c2d4572d25815bfabd557ace1cb9534c5dd29ec16062a1fc9955b1be20f1d375",
    ("float32", "combo", 11): "6d81b06244b6c5670dbe32cf4da65fbc941057278f6f38c989bd96735799fd3e",
    ("float32", "nt3", 1): "284941ec5184828985926a8a46b351a6de357dde883ee6618b3f34577092587c",
    ("float32", "nt3", 6): "28f10aacdafad537124f9c81c6f3e860201f85d7a560bb36f13c393c6ddf0236",
    ("float32", "nt3", 11): "64f722222be5a2eb5c72cf3ff0d9543f59bb103efe20a7f82fc7abdf1942970b",
    ("float32", "uno", 1): "ab1cfc55ddf554a0c3112d68c695cdfc766a2dc33e75c463902474fa1ef80bf0",
    ("float32", "uno", 6): "3dfe3b6f5c666c5efeb49daea58dd55306fca580ec94260f8fc5178c51a8a86c",
    ("float32", "uno", 11): "b5212e88352201361f962f1c5f3fdb8773d441f614748072eef989283e77bda8",
    ("float64", "combo", 1): "a939c0f54b8616367ec38d5b9af005e77d27e2f426381219fcc285e08b60ad3b",
    ("float64", "combo", 6): "96892118faf56b8df01e9f2d6104912fadcee362eeb0766e366e0bfc578862fc",
    ("float64", "combo", 11): "f9494dff41e0505a3a019eb2cfbfed9dff18080f52523540843bb5c36ffd6be0",
    ("float64", "nt3", 1): "a2cdd323ca52d8a843a4d45b2e33d75bf07ba3afebe35c95f7866d34c1f034f4",
    ("float64", "nt3", 6): "915d0d6783f4d7ae57f5aebed54dbdc03b6f16e9b304a526f6c7076f7d0ac9b4",
    ("float64", "nt3", 11): "ecb5127e6a6e4c85be4cdf9cc348c1444558ce039068a672cdb805b357b751c6",
    ("float64", "uno", 1): "190d92e25f02047dc2218218affcb28cd5ac7cf8f4c6696b46b0fadd11c0d29d",
    ("float64", "uno", 6): "0c1c766c949a55b8f95528d444f6dcb0887409a431ce61d9def2f0ddd93829a6",
    ("float64", "uno", 11): "2c2d2a9cf0cec5164004f7bde32040141be9a878c6cee76ec01922f8c393c659",
}
_SPACES = {"combo": combo_small, "nt3": nt3_small, "uno": uno_small}


def _policy_digest(dtype: str, space: str, batch: int) -> str:
    """Four rounds of ``sample`` + ``update_delta`` (actions, logprobs,
    values, delta and every ``PPOStats`` field), then ``greedy()``."""
    digest = hashlib.sha256()
    # conftest pins float64, so the dtype is set here for both cases
    with dtype_scope(dtype):
        pol = LSTMPolicy(_SPACES[space]().action_dims, seed=0)
        upd = PPOUpdater(pol)
        rng = np.random.default_rng(batch)
        for _ in range(4):
            ro = pol.sample(batch, rng)
            for arr in (ro.actions.astype(np.int64), ro.logprobs, ro.values):
                digest.update(arr.tobytes())
            delta, stats = upd.update_delta(ro, rng.random(batch))
            digest.update(delta.tobytes())
            digest.update(np.array(dataclasses.astuple(stats),
                                   dtype=np.float64).tobytes())
        digest.update(pol.greedy().astype(np.int64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("dtype,space,batch", sorted(_POLICY_DIGESTS))
def test_policy_numerics_are_pinned(dtype, space, batch):
    assert _policy_digest(dtype, space, batch) == \
        _POLICY_DIGESTS[dtype, space, batch]
