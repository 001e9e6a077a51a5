"""Unit tests for the LSTM policy: sampling, masking, BPTT gradients."""

import numpy as np
import pytest

from repro.rl.policy import LSTMPolicy

from helpers import assert_grad_matches

DIMS = [5, 3, 7, 2]


class TestSampling:
    def test_actions_respect_dims(self, rng):
        pol = LSTMPolicy(DIMS, seed=0)
        ro = pol.sample(64, rng)
        assert ro.actions.shape == (64, 4)
        for t, d in enumerate(DIMS):
            assert ro.actions[:, t].max() < d
            assert ro.actions[:, t].min() >= 0

    def test_logprobs_negative_and_consistent(self, rng):
        pol = LSTMPolicy(DIMS, seed=0)
        ro = pol.sample(16, rng)
        assert (ro.logprobs <= 0).all()
        lp, v, ent = pol.forward_train(ro.actions)
        np.testing.assert_allclose(lp, ro.logprobs, atol=1e-12)
        np.testing.assert_allclose(v, ro.values, atol=1e-12)

    def test_masked_actions_have_zero_probability(self, rng):
        pol = LSTMPolicy([2, 2], seed=1)
        ro = pol.sample(1, rng)
        pol.forward_train(ro.actions)
        # probabilities beyond dim 2 are exactly zero at every step
        probs = pol._seq["probs"]                           # (T, B, A)
        np.testing.assert_array_equal(probs[:, :, 2:], 0.0)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)

    def test_same_seed_same_policy(self, rng):
        a = LSTMPolicy(DIMS, seed=9)
        b = LSTMPolicy(DIMS, seed=9)
        np.testing.assert_array_equal(a.get_flat(), b.get_flat())

    def test_entropy_positive(self, rng):
        pol = LSTMPolicy(DIMS, seed=0)
        ro = pol.sample(4, rng)
        _, _, ent = pol.forward_train(ro.actions)
        assert (ent > 0).all()
        assert (ent <= np.log(max(DIMS)) + 1e-9).all()

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            LSTMPolicy([])
        with pytest.raises(ValueError):
            LSTMPolicy([3, 0])

    def test_wrong_horizon_raises(self, rng):
        pol = LSTMPolicy(DIMS, seed=0)
        with pytest.raises(ValueError):
            pol.forward_train(np.zeros((2, 3), dtype=int))


class TestFlatParams:
    def test_roundtrip(self):
        pol = LSTMPolicy(DIMS, seed=0)
        flat = pol.get_flat()
        assert flat.shape == (pol.num_params,)
        pol.set_flat(flat * 2)
        np.testing.assert_allclose(pol.get_flat(), flat * 2)

    def test_add_flat(self):
        pol = LSTMPolicy(DIMS, seed=0)
        flat = pol.get_flat()
        pol.add_flat(np.ones_like(flat))
        np.testing.assert_allclose(pol.get_flat(), flat + 1.0)

    def test_wrong_length_rejected(self):
        pol = LSTMPolicy(DIMS, seed=0)
        with pytest.raises(ValueError):
            pol.set_flat(np.zeros(3))


class TestGradients:
    def test_full_bptt_gradcheck(self, rng):
        pol = LSTMPolicy([4, 3, 5], hidden=6, embed_dim=4, seed=2)
        ro = pol.sample(3, rng)
        w_lp = rng.standard_normal(ro.logprobs.shape)
        w_v = rng.standard_normal(ro.values.shape)
        w_e = rng.standard_normal(ro.values.shape)

        def obj():
            lp, v, ent = pol.forward_train(ro.actions)
            return float((w_lp * lp).sum() + (w_v * v).sum()
                         + (w_e * ent).sum())

        pol.forward_train(ro.actions)
        pol.zero_grad()
        pol.backward_train(w_lp, w_v, w_e)
        assert_grad_matches(obj, pol.parameters(), rng, n_checks=2)

    def test_zero_grad(self):
        pol = LSTMPolicy(DIMS, seed=0)
        for p in pol.parameters():
            p.grad += 1.0
        pol.zero_grad()
        assert all(not p.grad.any() for p in pol.parameters())
