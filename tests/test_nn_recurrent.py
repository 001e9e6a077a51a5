"""Unit tests for the LSTM cell, including multi-step BPTT gradchecks,
and for the fused sequence driver against the reference cell."""

import numpy as np
import pytest

from repro.nn.recurrent import FusedLSTM, LSTMCell


class TestShapesAndState:
    def test_step_shapes(self, rng):
        cell = LSTMCell(5, 8, rng)
        h0, c0 = cell.initial_state(3)
        h, c, cache = cell.step(rng.standard_normal((3, 5)), h0, c0)
        assert h.shape == (3, 8) and c.shape == (3, 8)

    def test_param_count(self, rng):
        cell = LSTMCell(5, 8, rng)
        assert cell.num_params == 5 * 32 + 8 * 32 + 32

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(3, 4, rng)
        np.testing.assert_array_equal(cell.b.value[4:8], 1.0)
        np.testing.assert_array_equal(cell.b.value[:4], 0.0)

    def test_initial_state_zero(self, rng):
        cell = LSTMCell(3, 4, rng)
        h, c = cell.initial_state(2)
        assert not h.any() and not c.any()
        assert h is not c

    def test_invalid_sizes(self, rng):
        with pytest.raises(ValueError):
            LSTMCell(0, 4, rng)

    def test_state_bounded(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell.initial_state(2)
        for _ in range(50):
            h, c, _ = cell.step(rng.standard_normal((2, 4)) * 5, h, c)
        assert np.abs(h).max() <= 1.0  # h = o * tanh(c), both bounded


class TestBPTT:
    def _rollout_loss(self, cell, xs):
        h, c = cell.initial_state(xs[0].shape[0])
        total = 0.0
        for x in xs:
            h, c, _ = cell.step(x, h, c)
            total += h.sum()
        return float(total)

    def test_multistep_gradcheck(self, rng):
        cell = LSTMCell(3, 4, rng)
        xs = [rng.standard_normal((2, 3)) for _ in range(4)]

        # analytic: forward with caches, then backward through time
        h, c = cell.initial_state(2)
        caches = []
        for x in xs:
            h, c, cache = cell.step(x, h, c)
            caches.append(cache)
        for p in cell.parameters():
            p.zero_grad()
        dh = np.ones((2, 4))
        dc = np.zeros((2, 4))
        for cache in reversed(caches):
            _, dh_prev, dc_prev = cell.backward_step(dh, dc, cache)
            dh = dh_prev + np.ones((2, 4))  # loss adds h.sum() at every step
            dc = dc_prev

        for p in cell.parameters():
            idx = np.unravel_index(
                int(np.argmax(np.abs(p.grad))), p.grad.shape)
            eps = 1e-6
            old = p.value[idx]
            p.value[idx] = old + eps
            fp = self._rollout_loss(cell, xs)
            p.value[idx] = old - eps
            fm = self._rollout_loss(cell, xs)
            p.value[idx] = old
            num = (fp - fm) / (2 * eps)
            assert abs(num - p.grad[idx]) < 1e-5 * max(1.0, abs(num)), p.name

    def test_input_gradient(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.standard_normal((2, 3))
        h0, c0 = cell.initial_state(2)
        h, c, cache = cell.step(x, h0, c0)
        for p in cell.parameters():
            p.zero_grad()
        dx, _, _ = cell.backward_step(np.ones_like(h), np.zeros_like(c), cache)
        eps = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[0, 1] += eps
        xm[0, 1] -= eps
        hp, _, _ = cell.step(xp, h0, c0)
        hm, _, _ = cell.step(xm, h0, c0)
        num = (hp.sum() - hm.sum()) / (2 * eps)
        assert abs(num - dx[0, 1]) < 1e-6

    def test_carry_gradient(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.standard_normal((1, 3))
        h0 = rng.standard_normal((1, 4)) * 0.1
        c0 = rng.standard_normal((1, 4)) * 0.1
        h, c, cache = cell.step(x, h0, c0)
        _, dh_prev, dc_prev = cell.backward_step(
            np.ones_like(h), np.zeros_like(c), cache)
        eps = 1e-6
        hp = h0.copy()
        hp[0, 2] += eps
        hm = h0.copy()
        hm[0, 2] -= eps
        yp, _, _ = cell.step(x, hp, c0)
        ym, _, _ = cell.step(x, hm, c0)
        num = (yp.sum() - ym.sum()) / (2 * eps)
        assert abs(num - dh_prev[0, 2]) < 1e-6


class TestFusedLSTM:
    """The fused driver is the hot path; the reference cell is ground
    truth.  The stacked-[x,h] GEMM contracts in a different order than
    the reference's two GEMMs, so equality is to rounding, not bits."""

    def _reference_pass(self, cell, xs, dhs):
        """Reference forward + BPTT; returns (hs, param grads, dxs)."""
        h, c = cell.initial_state(xs[0].shape[0])
        hs, caches = [], []
        for x in xs:
            h, c, cache = cell.step(x, h, c)
            hs.append(h)
            caches.append(cache)
        for p in cell.parameters():
            p.zero_grad()
        dh = np.zeros_like(h)
        dc = np.zeros_like(c)
        dxs = [None] * len(xs)
        for t in reversed(range(len(xs))):
            dx, dh, dc = cell.backward_step(dhs[t] + dh, dc, caches[t])
            dxs[t] = dx
        grads = {p.name: p.grad.copy() for p in cell.parameters()}
        return hs, grads, dxs

    def _fused_pass(self, fused, xs, dhs):
        cell = fused.cell
        fused.begin(len(xs), xs[0].shape[0])
        hs = [fused.step(t, x).copy() for t, x in enumerate(xs)]
        for p in cell.parameters():
            p.zero_grad()
        dh_next = None
        dc = np.zeros_like(hs[0])
        for t in reversed(range(len(xs))):
            dh = dhs[t] + dh_next if dh_next is not None else dhs[t]
            dh_next, dc = fused.backward_step(t, dh, dc)
        fused.backward_finish()
        grads = {p.name: p.grad.copy() for p in cell.parameters()}
        return hs, grads, fused.input_grads()

    def _assert_pass_matches(self, cell, fused, rng, horizon, batch):
        xs = [rng.standard_normal((batch, cell.input_size))
              for _ in range(horizon)]
        dhs = [rng.standard_normal((batch, cell.hidden_size))
               for _ in range(horizon)]
        ref_hs, ref_grads, ref_dxs = self._reference_pass(cell, xs, dhs)
        fus_hs, fus_grads, fus_dxs = self._fused_pass(fused, xs, dhs)
        for t in range(horizon):
            np.testing.assert_allclose(fus_hs[t], ref_hs[t], atol=1e-12)
            np.testing.assert_allclose(fus_dxs[t], ref_dxs[t], atol=1e-12)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(fus_grads[name], ref, atol=1e-11,
                                       err_msg=name)

    def test_matches_reference_cell(self, rng):
        cell = LSTMCell(5, 8, rng)
        self._assert_pass_matches(cell, FusedLSTM(cell), rng,
                                  horizon=6, batch=3)

    def test_buffers_reused_across_batch_sizes(self, rng):
        """Shape-keyed buffer pooling: passes at different (T, B) — and a
        return to an earlier shape — must all match the reference."""
        cell = LSTMCell(4, 6, rng)
        fused = FusedLSTM(cell)
        for horizon, batch in [(5, 8), (5, 3), (2, 8), (5, 8)]:
            self._assert_pass_matches(cell, fused, rng, horizon, batch)

    def test_forward_block_matches_stepwise_bit_for_bit(self, rng):
        """``forward`` (the whole input block loaded up front, as
        ``forward_train`` does) and per-step ``step(t, x)`` (as sampling
        does) are one computation: equal hidden states and gradients,
        bit for bit."""
        cell = LSTMCell(5, 8, rng)
        xs = rng.standard_normal((6, 3, 5))
        dhs = [rng.standard_normal((3, 8)) for _ in range(6)]
        stepwise = self._fused_pass(FusedLSTM(cell), list(xs), dhs)
        fused = FusedLSTM(cell)
        fused.begin(6, 3)
        hs = fused.forward(xs).copy()
        for p in cell.parameters():
            p.zero_grad()
        dh_next, dc = None, np.zeros((3, 8))
        for t in reversed(range(6)):
            dh = dhs[t] + dh_next if dh_next is not None else dhs[t]
            dh_next, dc = fused.backward_step(t, dh, dc)
        fused.backward_finish()
        np.testing.assert_array_equal(hs, np.stack(stepwise[0]))
        for p in cell.parameters():
            np.testing.assert_array_equal(p.grad, stepwise[1][p.name])
        np.testing.assert_array_equal(fused.input_grads(), stepwise[2])

    def test_weight_refresh_on_begin(self, rng):
        """Parameters are flat-pack views mutated externally; begin()
        must pick up the new values."""
        cell = LSTMCell(3, 4, rng)
        fused = FusedLSTM(cell)
        x = rng.standard_normal((2, 3))
        fused.begin(1, 2)
        first = fused.step(0, x).copy()
        cell.wx.value += 0.1     # optimizer-style in-place update
        fused.begin(1, 2)
        second = fused.step(0, x).copy()
        assert not np.allclose(first, second)
        ref, _, _ = cell.step(x, *cell.initial_state(2))
        np.testing.assert_allclose(second, ref, atol=1e-12)
