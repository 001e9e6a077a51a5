"""Numerical-gradient checking utilities shared across test modules."""

import numpy as np


def numeric_grad(f, param, index, eps=1e-6):
    """Central-difference derivative of scalar ``f()`` w.r.t. one entry."""
    old = param.value[index]
    param.value[index] = old + eps
    fp = f()
    param.value[index] = old - eps
    fm = f()
    param.value[index] = old
    return (fp - fm) / (2 * eps)


def assert_grad_matches(f, params, rng, n_checks=3, rtol=1e-5, atol=1e-7):
    """Check analytic grads (already accumulated) against finite
    differences at a few random entries of each parameter."""
    for p in params:
        flat_size = p.value.size
        for _ in range(min(n_checks, flat_size)):
            index = np.unravel_index(rng.integers(flat_size), p.value.shape)
            num = numeric_grad(f, p, index)
            ana = p.grad[index]
            assert abs(num - ana) <= atol + rtol * abs(num), \
                f"{p.name}[{index}]: numeric {num} vs analytic {ana}"


def assert_gradcheck_ok(result):
    """Fail with the worst entry unless a
    :class:`~repro.verify.gradcheck.GradCheckResult` passed; returns it."""
    assert result.ok, (
        f"gradient check {result.name!r} failed: worst relative error "
        f"{result.max_err:.3g} at {result.worst} "
        f"({result.n_checked} entries checked)")
    return result
