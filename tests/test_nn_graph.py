"""Unit tests for the DAG model container."""

import numpy as np
import pytest

from repro.nn import Concatenate, Dense, GraphModel, Identity


def _diamond(rng):
    """x -> (a, b) -> concat -> out; used by several tests."""
    m = GraphModel()
    m.add_input("x", (4,))
    m.add("a", Dense(3, "tanh"), ["x"])
    m.add("b", Dense(5, "relu"), ["x"])
    m.add("cat", Concatenate(), ["a", "b"])
    m.add("out", Dense(1), ["cat"])
    m.set_output("out")
    return m.build(rng)


class TestConstruction:
    def test_duplicate_name_rejected(self, rng):
        m = GraphModel()
        m.add_input("x", (4,))
        with pytest.raises(ValueError):
            m.add_input("x", (4,))
        m.add("a", Dense(3), ["x"])
        with pytest.raises(ValueError):
            m.add("a", Dense(3), ["x"])

    def test_unknown_input_rejected(self):
        m = GraphModel()
        m.add_input("x", (4,))
        with pytest.raises(KeyError):
            m.add("a", Dense(3), ["nope"])

    def test_multi_input_needs_merge_layer(self):
        m = GraphModel()
        m.add_input("x", (4,))
        m.add_input("y", (4,))
        with pytest.raises(ValueError):
            m.add("a", Dense(3), ["x", "y"])

    def test_no_inputs_rejected(self):
        m = GraphModel()
        m.add_input("x", (4,))
        with pytest.raises(ValueError):
            m.add("a", Dense(3), [])

    def test_build_without_output_raises(self, rng):
        m = GraphModel()
        m.add_input("x", (4,))
        m.add("a", Dense(3), ["x"])
        with pytest.raises(RuntimeError):
            m.build(rng)

    def test_unknown_output_raises(self):
        m = GraphModel()
        m.add_input("x", (4,))
        with pytest.raises(KeyError):
            m.set_output("zzz")

    def test_add_after_build_raises(self, rng):
        m = _diamond(rng)
        with pytest.raises(RuntimeError):
            m.add("late", Dense(2), ["a"])


class TestExecution:
    def test_forward_shape(self, rng):
        m = _diamond(rng)
        out = m.forward({"x": rng.standard_normal((7, 4))})
        assert out.shape == (7, 1)
        assert m.output_shape == (1,)

    def test_missing_input_raises(self, rng):
        m = _diamond(rng)
        with pytest.raises(KeyError):
            m.forward({})

    def test_forward_before_build_raises(self):
        m = GraphModel()
        m.add_input("x", (4,))
        m.add("a", Dense(3), ["x"])
        m.set_output("a")
        with pytest.raises(RuntimeError):
            m.forward({"x": np.zeros((1, 4))})

    def test_diamond_gradient_accumulates(self, rng):
        m = _diamond(rng)
        x = rng.standard_normal((5, 4))

        def f():
            return float(m.forward({"x": x}).sum())

        m.forward({"x": x})
        m.zero_grad()
        grads = m.backward(np.ones((5, 1)))
        # input gradient flows through both branches
        eps = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[2, 1] += eps
        xm[2, 1] -= eps
        num = (m.forward({"x": xp}).sum() - m.forward({"x": xm}).sum()) / (2 * eps)
        assert abs(num - grads["x"][2, 1]) < 1e-6

    def test_fan_out_parameter_gradients(self, rng):
        # one layer consumed by two downstream heads: grads accumulate
        m = GraphModel()
        m.add_input("x", (3,))
        m.add("h", Dense(4, "tanh"), ["x"])
        m.add("p", Dense(2), ["h"])
        m.add("q", Dense(2), ["h"])
        m.add("cat", Concatenate(), ["p", "q"])
        m.set_output("cat")
        m.build(rng)
        x = rng.standard_normal((3, 3))

        def f():
            return float(m.forward({"x": x}).sum())

        m.forward({"x": x})
        m.zero_grad()
        m.backward(np.ones((3, 4)))
        w = m.layers["h"].w
        eps = 1e-6
        old = w.value[1, 1]
        w.value[1, 1] = old + eps
        fp = f()
        w.value[1, 1] = old - eps
        fm = f()
        w.value[1, 1] = old
        assert abs((fp - fm) / (2 * eps) - w.grad[1, 1]) < 1e-6

    def test_node_value(self, rng):
        m = _diamond(rng)
        x = rng.standard_normal((2, 4))
        m.forward({"x": x})
        assert m.node_values()["a"].shape == (2, 3)


class TestIntrospection:
    def test_param_dedup_shared_weights(self, rng):
        m = GraphModel()
        m.add_input("x", (4,))
        m.add_input("y", (4,))
        a = Dense(3)
        m.add("a", a, ["x"])
        m.add("b", Dense(3, share_from=a), ["y"])
        m.add("cat", Concatenate(), ["a", "b"])
        m.set_output("cat")
        m.build(rng)
        assert m.num_params == (4 + 1) * 3  # counted once

    def test_prebuilt_layers_not_reinitialized(self, rng):
        m = GraphModel()
        m.add_input("x", (4,))
        d = Dense(3)
        d.build((4,), rng)
        w_before = d.w.value.copy()
        m.add("a", d, ["x"])
        m.set_output("a")
        m.build(rng)
        np.testing.assert_array_equal(d.w.value, w_before)

    def test_identity_chain(self, rng):
        m = GraphModel()
        m.add_input("x", (4,))
        m.add("i1", Identity(), ["x"])
        m.add("i2", Identity(), ["i1"])
        m.set_output("i2")
        m.build(rng)
        x = rng.standard_normal((2, 4))
        np.testing.assert_array_equal(m.forward({"x": x}), x)
        assert m.num_params == 0
