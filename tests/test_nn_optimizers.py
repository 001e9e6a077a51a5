"""Unit tests for Adam and gradient clipping."""

import numpy as np
import pytest

from repro.nn.optimizers import Adam, clip_global_norm
from repro.nn.tensor import Parameter


def _quadratic_descent(opt_factory, steps=200):
    """Minimize ||p - target||^2; returns the final distance."""
    p = Parameter(np.zeros(4))
    target = np.array([1.0, -2.0, 0.5, 3.0])
    opt = opt_factory([p])
    for _ in range(steps):
        p.zero_grad()
        p.grad += 2.0 * (p.value - target)
        opt.step()
    return float(np.abs(p.value - target).max())


class TestAdam:
    def test_converges_on_quadratic(self):
        assert _quadratic_descent(lambda ps: Adam(ps, lr=0.1), steps=400) < 1e-4

    def test_first_step_size_is_lr(self):
        # with bias correction, the first Adam step has magnitude ~lr
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad += np.array([123.0])
        opt.step()
        assert abs(abs(p.value[0]) - 0.01) < 1e-6

    def test_shared_parameter_updated_once(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p, p], lr=0.01)  # same object twice
        p.grad += np.array([1.0])
        opt.step()
        # moments keyed by identity: exactly one state slot
        assert len(opt._m) == 1

    def test_zero_grad_helper(self):
        p = Parameter(np.ones(3))
        opt = Adam([p])
        p.grad += 2.0
        opt.zero_grad()
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=-1.0)


class TestClipGlobalNorm:
    def test_no_clip_below_threshold(self):
        g = [np.array([3.0, 4.0])]  # norm 5
        norm = clip_global_norm(g, 10.0)
        assert norm == 5.0
        np.testing.assert_array_equal(g[0], [3.0, 4.0])

    def test_clips_above_threshold(self):
        g = [np.array([3.0, 4.0])]
        norm = clip_global_norm(g, 1.0)
        assert norm == 5.0
        assert abs(np.linalg.norm(g[0]) - 1.0) < 1e-12

    def test_multiple_arrays_share_scale(self):
        g = [np.array([3.0]), np.array([4.0])]
        clip_global_norm(g, 1.0)
        total = np.sqrt(g[0][0] ** 2 + g[1][0] ** 2)
        assert abs(total - 1.0) < 1e-12

    def test_zero_grads_safe(self):
        g = [np.zeros(3)]
        assert clip_global_norm(g, 1.0) == 0.0

