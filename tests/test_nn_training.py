"""Unit tests for the training loop: fit, timeout, fidelity controls."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.nn import Dense, GraphModel, Trainer


def _linear_problem(rng, n=200, d=6):
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = (x @ w)[:, None]
    return {"x": x}, y


def _model(rng, d=6, hidden=16):
    m = GraphModel()
    m.add_input("x", (d,))
    m.add("h", Dense(hidden, "tanh"), ["x"])
    m.add("y", Dense(1), ["h"])
    m.set_output("y")
    return m.build(rng)


class FakeClock:
    """Deterministic clock: each call advances by ``tick`` seconds."""

    def __init__(self, tick=1.0):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


class TestFit:
    def test_loss_decreases(self, rng):
        x, y = _linear_problem(rng)
        m = _model(rng)
        hist = Trainer(epochs=20, lr=0.01, metric="r2").fit(m, x, y, x, y)
        assert hist.epoch_losses[-1] < hist.epoch_losses[0]
        assert hist.val_metric > 0.8

    def test_history_fields(self, rng):
        x, y = _linear_problem(rng, n=64)
        m = _model(rng)
        hist = Trainer(batch_size=16, epochs=3).fit(m, x, y)
        assert len(hist.epoch_losses) == 3
        assert hist.batches_seen == 3 * 4
        assert np.isnan(hist.val_metric)  # no validation data given

    def test_train_fraction_reduces_batches(self, rng):
        x, y = _linear_problem(rng, n=100)
        m = _model(rng)
        full = Trainer(batch_size=10, epochs=1).fit(m, x, y)
        m2 = _model(rng)
        frac = Trainer(batch_size=10, epochs=1, train_fraction=0.3).fit(
            m2, x, y)
        assert full.batches_seen == 10
        assert frac.batches_seen == 3

    def test_deterministic_given_seed(self, rng):
        x, y = _linear_problem(rng, n=64)
        results = []
        for _ in range(2):
            m = _model(np.random.default_rng(0))
            h = Trainer(epochs=2, seed=42).fit(m, x, y, x, y)
            results.append(h.val_metric)
        assert results[0] == results[1]

    def test_evaluate_batches_consistent(self, rng):
        x, y = _linear_problem(rng, n=50)
        m = _model(rng)
        tr = Trainer(metric="r2")
        full = tr.evaluate(m, x, y, batch_size=1000)
        chunked = tr.evaluate(m, x, y, batch_size=7)
        assert abs(full - chunked) < 1e-12


class TestTimeout:
    def test_timeout_stops_mid_epoch(self, rng):
        x, y = _linear_problem(rng, n=100)
        m = _model(rng)
        clock = FakeClock(tick=1.0)
        # every clock call advances 1s; timeout after 5s cuts the epoch
        hist = Trainer(batch_size=10, epochs=1, timeout=5.0,
                       clock=clock).fit(m, x, y)
        assert hist.timed_out
        assert hist.batches_seen < 10

    def test_no_timeout_completes(self, rng):
        x, y = _linear_problem(rng, n=40)
        m = _model(rng)
        hist = Trainer(batch_size=10, epochs=2).fit(m, x, y)
        assert not hist.timed_out
        assert hist.batches_seen == 8

    def test_timeout_records_train_time(self, rng):
        x, y = _linear_problem(rng, n=100)
        m = _model(rng)
        clock = FakeClock(tick=1.0)
        hist = Trainer(batch_size=10, epochs=1, timeout=3.0,
                       clock=clock).fit(m, x, y)
        assert hist.train_time > 3.0


class TestValidation:
    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            Trainer(train_fraction=0.0)
        with pytest.raises(ValueError):
            Trainer(train_fraction=1.5)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            Trainer(batch_size=0)
        with pytest.raises(ValueError):
            Trainer(epochs=0)

    def test_loss_instance_accepted(self, rng):
        from repro.nn.losses import MeanSquaredError
        x, y = _linear_problem(rng, n=32)
        m = _model(rng)
        hist = Trainer(loss=MeanSquaredError(), epochs=1).fit(m, x, y)
        assert len(hist.epoch_losses) == 1


def test_nn_imports_nothing_from_health():
    """Reward training carries no numerical guard: no module of
    ``repro.nn`` imports the health layer, which watches PPO updates."""
    nn_dir = Path(__file__).resolve().parents[1] / "src" / "repro" / "nn"
    for path in nn_dir.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any("health" in name for name in names), path.name
