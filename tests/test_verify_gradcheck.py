"""Universal finite-difference gradient checker over every public
layer/loss, the LSTM policy, and the PPO surrogate — including the edge
shapes ISSUE 3 calls out (pool-size remainders, sequence length 1,
batch size 1)."""

import numpy as np
import pytest

from helpers import assert_gradcheck_ok
from repro.nn.conv import Conv1D, MaxPooling1D
from repro.nn.layers import Dense, Dropout
from repro.nn.losses import CategoricalCrossentropy, MeanSquaredError
from repro.nn.merge import Add, Concatenate
from repro.verify.gradcheck import default_checks

_SUITE = default_checks()


@pytest.mark.verify
@pytest.mark.parametrize("name,thunk", _SUITE,
                         ids=[name for name, _ in _SUITE])
def test_default_suite(name, thunk):
    """Every public layer and loss validates against central FD."""
    assert_gradcheck_ok(thunk())


class TestEdgeShapes:
    """The satellite edge shapes, via the ``gradcheck`` fixture."""

    def test_conv_into_pool_with_remainder(self, gradcheck):
        """Conv1D output length 15 is not divisible by pool size 4 —
        the trailing remainder must neither crash nor leak gradient."""
        gradcheck(Conv1D(2, 3), (17, 1))          # conv -> length 15
        gradcheck(MaxPooling1D(4), (15, 2))       # 15 = 3*4 + 3

    def test_lstm_sequence_length_one(self, gradcheck):
        gradcheck.check_policy([6])

    def test_batch_size_one(self, gradcheck):
        gradcheck(Dense(4, "tanh"), (5,), batch=1)
        gradcheck(Conv1D(2, 3), (9, 1), batch=1)
        gradcheck(MaxPooling1D(2), (8, 2), batch=1)
        gradcheck(Concatenate(), [(3,), (4,)], batch=1)
        gradcheck.check_policy([3, 2], batch=1)

    def test_dropout_eval_is_identity_gradient(self, gradcheck):
        res = gradcheck(Dropout(0.5), (6,), training=False)
        assert res.n_checked > 0

    def test_add_with_width_padding(self, gradcheck):
        gradcheck(Add(), [(5,), (2,), (3,)])


class TestLosses:
    def test_mse(self, gradcheck):
        rng = np.random.default_rng(0)
        gradcheck.check_loss(MeanSquaredError(),
                             rng.standard_normal((4, 2)),
                             rng.standard_normal((4, 2)))

    def test_crossentropy(self, gradcheck):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((6, 3))
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        pred = e / e.sum(axis=-1, keepdims=True)
        target = np.eye(3)[rng.integers(0, 3, size=6)]
        gradcheck.check_loss(CategoricalCrossentropy(), pred, target)


class TestPolicyAndPPO:
    def test_lstm_policy_masked_gradients(self, gradcheck):
        """Ragged action dims exercise the −1e9 logit mask in BPTT."""
        gradcheck.check_policy([3, 7, 2, 5])

    def test_ppo_surrogate(self, gradcheck):
        gradcheck.check_ppo()

    def test_failure_is_detected(self):
        """A deliberately broken backward must fail the checker —
        guards against a vacuously green suite."""
        from repro.verify.gradcheck import check_layer

        layer = Dense(3, "linear")
        orig = Dense.backward

        def broken(self, grad):
            out = orig(self, grad)
            self.w.grad *= 1.5
            return out

        Dense.backward = broken
        try:
            res = check_layer(layer, (4,))
        finally:
            Dense.backward = orig
        assert not res.ok
