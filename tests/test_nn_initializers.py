"""Unit tests for the weight initializers."""

import numpy as np
import pytest

from repro.nn.initializers import glorot_uniform, orthogonal


class TestGlorot:
    def test_bounds(self, rng):
        w = glorot_uniform((50, 30), rng)
        limit = np.sqrt(6.0 / (50 + 30))
        assert np.abs(w).max() <= limit
        assert w.shape == (50, 30)

    def test_vector_shape(self, rng):
        w = glorot_uniform((100,), rng)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= limit

    def test_conv_kernel_fans(self, rng):
        # (kernel, in_channels, out_channels): receptive field scales fans
        w = glorot_uniform((5, 3, 8), rng)
        limit = np.sqrt(6.0 / (5 * 3 + 5 * 8))
        assert np.abs(w).max() <= limit

    def test_deterministic_per_rng(self):
        a = glorot_uniform((4, 4), np.random.default_rng(1))
        b = glorot_uniform((4, 4), np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)


class TestOrthogonal:
    @pytest.mark.parametrize("shape", [(8, 8), (12, 6), (6, 12)])
    def test_orthonormal_columns_or_rows(self, shape, rng):
        w = orthogonal(shape, rng)
        assert w.shape == shape
        rows, cols = shape
        if rows >= cols:
            np.testing.assert_allclose(w.T @ w, np.eye(cols), atol=1e-10)
        else:
            np.testing.assert_allclose(w @ w.T, np.eye(rows), atol=1e-10)

    def test_preserves_norms(self, rng):
        w = orthogonal((16, 16), rng)
        x = rng.standard_normal(16)
        assert abs(np.linalg.norm(w @ x) - np.linalg.norm(x)) < 1e-10

