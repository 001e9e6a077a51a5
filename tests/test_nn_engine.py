"""Compiled-engine tests: dtype config, buffer reuse, flat parameters.

The float64 numerics of the compiled plan are covered by the whole
existing suite (the conftest pins float64); this file covers what is new
in the engine: the float32 default substrate, aliasing safety of pooled
buffers, and the fused flat-vector optimizer.
"""

import numpy as np
import pytest

from repro.nn import (Adam, Conv1D, Dense, Dropout, FlatAdam,
                      FlatParameterVector, Flatten, GraphModel, Identity,
                      MaxPooling1D, Parameter, Trainer, dtype_scope,
                      get_default_dtype, set_default_dtype)
from repro.nn.merge import Concatenate


def combo_like(dtype=None, seed=3):
    """A small Combo-shaped model: three inputs, dense towers, concat."""
    m = GraphModel()
    m.add_input("cell", (20,))
    m.add_input("drug1", (24,))
    m.add_input("drug2", (24,))
    for src, pref in (("cell", "c"), ("drug1", "d1"), ("drug2", "d2")):
        m.add(f"{pref}.h", Dense(16, "relu"), [src])
    m.add("cat", Concatenate(), ["c.h", "d1.h", "d2.h"])
    m.add("top", Dense(16, "relu"), ["cat"])
    m.add("y", Dense(1), ["top"])
    m.set_output("y")
    return m.build(np.random.default_rng(seed), dtype=dtype)


def nt3_like(dtype=None, seed=5):
    """A small NT3-shaped model: conv/pool stack over a 1-D signal."""
    m = GraphModel()
    m.add_input("x", (60, 1))
    m.add("c1", Conv1D(4, 5, activation="relu"), ["x"])
    m.add("p1", MaxPooling1D(2), ["c1"])
    m.add("f", Flatten(), ["p1"])
    m.add("y", Dense(3, "softmax"), ["f"])
    m.set_output("y")
    return m.build(np.random.default_rng(seed), dtype=dtype)


def combo_batch(n, rng, dtype=np.float64):
    return {"cell": rng.normal(size=(n, 20)).astype(dtype),
            "drug1": rng.normal(size=(n, 24)).astype(dtype),
            "drug2": rng.normal(size=(n, 24)).astype(dtype)}


# ----------------------------------------------------------------------
# dtype configuration
# ----------------------------------------------------------------------
class TestDtypeConfig:
    def test_suite_default_is_float64(self):
        # pinned by conftest for the gradient checks
        assert get_default_dtype() == np.dtype(np.float64)

    def test_set_returns_previous(self):
        prev = set_default_dtype(np.float32)
        assert prev == np.dtype(np.float64)
        assert get_default_dtype() == np.dtype(np.float32)
        set_default_dtype(prev)

    def test_scope_restores_on_exit_and_error(self):
        with dtype_scope(np.float32):
            assert get_default_dtype() == np.dtype(np.float32)
        assert get_default_dtype() == np.dtype(np.float64)
        with pytest.raises(RuntimeError):
            with dtype_scope(np.float32):
                raise RuntimeError("boom")
        assert get_default_dtype() == np.dtype(np.float64)

    def test_rejects_non_float_dtypes(self):
        for bad in (np.int32, np.float16, "complex128"):
            with pytest.raises(ValueError):
                set_default_dtype(bad)

    def test_parameter_uses_configured_dtype(self):
        with dtype_scope(np.float32):
            p = Parameter(np.zeros(3))
        assert p.dtype == np.dtype(np.float32)
        assert Parameter(np.zeros(3)).dtype == np.dtype(np.float64)
        assert Parameter(np.zeros(3), dtype=np.float32).dtype == np.float32

    def test_model_freezes_dtype_at_build(self):
        m32 = combo_like(dtype=np.float32)
        m64 = combo_like(dtype=np.float64)
        assert m32.dtype == np.dtype(np.float32)
        assert m64.dtype == np.dtype(np.float64)
        for p in m32.parameters():
            assert p.dtype == np.dtype(np.float32)
        x = combo_batch(8, np.random.default_rng(0))
        assert m32.forward(x).dtype == np.float32
        assert m64.forward(x).dtype == np.float64


# ----------------------------------------------------------------------
# float32 vs float64 equivalence
# ----------------------------------------------------------------------
class TestPrecisionEquivalence:
    def test_combo_forward_close(self):
        m32, m64 = combo_like(np.float32), combo_like(np.float64)
        x = combo_batch(16, np.random.default_rng(1))
        p32 = m32.forward(x)
        p64 = m64.forward(x)
        np.testing.assert_allclose(p32, p64, rtol=1e-4, atol=1e-5)

    def test_nt3_forward_backward_close(self):
        m32, m64 = nt3_like(np.float32), nt3_like(np.float64)
        rng = np.random.default_rng(2)
        x = {"x": rng.normal(size=(12, 60, 1))}
        p32, p64 = m32.forward(x), m64.forward(x)
        np.testing.assert_allclose(p32, p64, rtol=1e-4, atol=1e-5)
        g = rng.normal(size=p64.shape) / 12
        m32.zero_grad(), m64.zero_grad()
        g32 = m32.backward(g)["x"]
        g64 = m64.backward(g)["x"]
        np.testing.assert_allclose(g32, g64, rtol=1e-3, atol=1e-5)

    def test_training_trajectories_track(self):
        rng = np.random.default_rng(7)
        x = combo_batch(96, rng)
        y = rng.normal(size=(96, 1))
        losses = {}
        for dt in (np.float32, np.float64):
            hist = Trainer(epochs=3, batch_size=16, seed=9).fit(
                combo_like(dt), x, y)
            losses[dt] = hist.epoch_losses
        np.testing.assert_allclose(losses[np.float32], losses[np.float64],
                                   rtol=1e-3)


# ----------------------------------------------------------------------
# buffer reuse
# ----------------------------------------------------------------------
class TestBufferReuse:
    def test_varying_batch_sizes_match_full_batch(self):
        m = combo_like(np.float64)
        rng = np.random.default_rng(4)
        x = combo_batch(37, rng)  # deliberately not a multiple of anything
        full = m.forward(x).copy()
        for lo, hi in ((0, 16), (16, 32), (32, 37), (5, 6)):
            part = m.forward({k: v[lo:hi] for k, v in x.items()})
            # BLAS picks different kernels per batch size (gemv vs gemm),
            # so rows agree to reduction-order rounding, not bitwise
            np.testing.assert_allclose(part, full[lo:hi], rtol=1e-12)

    def test_outputs_not_aliased_across_calls(self):
        # Trainer.evaluate appends per-batch predictions; a reused output
        # buffer would silently corrupt earlier batches.
        m = combo_like(np.float64)
        rng = np.random.default_rng(6)
        x1, x2 = combo_batch(8, rng), combo_batch(8, rng)
        out1 = m.forward(x1)
        snap = out1.copy()
        out2 = m.forward(x2)
        assert out2 is not out1
        np.testing.assert_array_equal(out1, snap)

    def test_output_through_passthrough_not_aliased(self):
        # Identity/Flatten return views; the node feeding them must also
        # be excluded from buffer reuse when it reaches the output.
        m = GraphModel()
        m.add_input("x", (6,))
        m.add("h", Dense(5, "relu"), ["x"])
        m.add("id", Identity(), ["h"])
        m.add("do", Dropout(0.5), ["id"])
        m.set_output("do")
        m.build(np.random.default_rng(0), dtype=np.float64)
        rng = np.random.default_rng(1)
        out1 = m.forward({"x": rng.normal(size=(4, 6))})  # eval: dropout=identity
        snap = out1.copy()
        m.forward({"x": rng.normal(size=(4, 6))})
        np.testing.assert_array_equal(out1, snap)

    def test_interior_buffers_are_reused(self):
        m = combo_like(np.float64)
        x = combo_batch(16, np.random.default_rng(8))
        plan = m._plan
        slot = plan.slot_of["c.h"]
        m.forward(x)
        first = plan._values[slot]
        m.forward(x)
        assert plan._values[slot] is first  # same pooled buffer

    def test_gradients_match_unpooled_layers(self):
        # plan-driven (pooled) gradients == standalone-layer gradients
        m = combo_like(np.float64)
        rng = np.random.default_rng(11)
        x = combo_batch(9, rng)
        pred = m.forward(x, training=True)
        m.zero_grad()
        m.backward(np.ones_like(pred) / pred.size)
        pooled = [p.grad.copy() for p in m.parameters()]

        ref = combo_like(np.float64)  # identical weights (same build seed)
        layer = ref.layers["top"]
        layer._pool = None  # force the standalone allocation path
        pred2 = ref.forward(x, training=True)
        np.testing.assert_array_equal(pred2, pred)
        ref.zero_grad()
        ref.backward(np.ones_like(pred2) / pred2.size)
        for g, p in zip(pooled, ref.parameters()):
            np.testing.assert_array_equal(g, p.grad)


# ----------------------------------------------------------------------
# flat parameter vector + fused optimizer
# ----------------------------------------------------------------------
class TestFlatParameters:
    def test_views_share_storage(self):
        m = combo_like(np.float64)
        flat = m.flatten_parameters()
        assert flat is m.flatten_parameters()  # cached
        assert len(flat) == m.num_params
        p = m.parameters()[0]
        before = flat.copy_values()
        p.value += 1.0
        assert not np.array_equal(flat.values, before)
        flat.set_values(before)
        np.testing.assert_array_equal(p.value, before[:p.size].reshape(p.shape))

    def test_dedups_shared_parameters(self):
        w = Parameter(np.arange(6, dtype=np.float64).reshape(2, 3))
        b = Parameter(np.zeros(3))
        flat = FlatParameterVector([w, b, w])  # mirror-shared w listed twice
        assert len(flat) == 9
        assert flat.params == [w, b]

    def test_set_and_add_validate_size(self):
        flat = combo_like(np.float64).flatten_parameters()
        with pytest.raises(ValueError):
            flat.set_values(np.zeros(len(flat) + 1))
        with pytest.raises(ValueError):
            flat.add_values(np.zeros(len(flat) - 1))
        delta = np.ones(len(flat))
        before = flat.copy_values()
        flat.add_values(delta)
        np.testing.assert_array_equal(flat.values, before + 1.0)

    def test_zero_grad_clears_all_views(self):
        m = combo_like(np.float64)
        flat = m.flatten_parameters()
        flat.grads += 3.0
        m.zero_grad()
        assert not flat.grads.any()
        assert not any(p.grad.any() for p in m.parameters())

    def test_flat_adam_matches_per_param_adam_exactly(self):
        rng = np.random.default_rng(13)
        shapes = [(4, 5), (5,), (5, 2), (2,)]
        pa = [Parameter(rng.normal(size=s)) for s in shapes]
        pb = [Parameter(p.value.copy()) for p in pa]
        opt_a, opt_b = Adam(pa, lr=0.01), FlatAdam(pb, lr=0.01)
        for step in range(5):
            g_rng = np.random.default_rng(100 + step)
            for a, b in zip(pa, pb):
                g = g_rng.normal(size=a.shape)
                a.grad[...] = g
                b.grad[...] = g
            opt_a.step()
            opt_b.step()
        for a, b in zip(pa, pb):
            np.testing.assert_array_equal(a.value, b.value)

    def test_trainer_default_optimizer_is_fused(self):
        m = combo_like(np.float64)
        rng = np.random.default_rng(17)
        x = combo_batch(32, rng)
        y = rng.normal(size=(32, 1))
        hist = Trainer(epochs=2, batch_size=8, seed=1).fit(m, x, y)
        assert m._flat is not None  # fit packed the parameters
        assert hist.batches_seen == 8
        assert np.isfinite(hist.epoch_losses[-1])
