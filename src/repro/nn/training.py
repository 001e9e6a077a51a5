"""Mini-batch training loop with the paper's reward-estimation controls.

Reward estimation in the paper trains each generated architecture with
``epochs=1``, a 10-minute timeout, and (for Combo) a 10–40% subset of the
training data; post-training uses 20 epochs, no timeout, full data.  The
:class:`Trainer` here exposes exactly those knobs: ``epochs``,
``timeout``, ``train_fraction`` and a pluggable clock so timeout behaviour
is testable without waiting.

Hot-path notes: the shuffled epoch subset is gathered into contiguous
arrays **once per epoch** (paying any dtype cast at the same time), so
each batch is a zero-copy slice instead of a per-batch fancy-index copy;
and the default optimizer is the fused :class:`~repro.nn.optimizers.FlatAdam`
over the model's packed parameter vector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graph import GraphModel
from .losses import Loss, get_loss
from .metrics import get_metric
from .optimizers import FlatAdam, Optimizer

__all__ = ["History", "Trainer"]


@dataclass
class History:
    """Record of one training run."""

    epoch_losses: list[float] = field(default_factory=list)
    val_metric: float = float("nan")
    train_time: float = 0.0
    timed_out: bool = False
    batches_seen: int = 0


class Trainer:
    """Trains a :class:`~repro.nn.graph.GraphModel` on a multi-input dataset.

    Parameters
    ----------
    loss:
        Loss name (``"mse"``, ``"categorical_crossentropy"``) or instance.
    metric:
        Validation metric name (``"r2"`` or ``"accuracy"``).
    batch_size, epochs, lr:
        Standard knobs; defaults follow the paper (Adam, lr=0.001).
    timeout:
        Wall-clock budget in seconds; training stops mid-epoch once
        exceeded and the history is flagged ``timed_out``.
    train_fraction:
        Fraction of the training set actually used (the paper's
        low-fidelity lever, §5.4).
    clock:
        Injectable monotonic clock, for tests and for the discrete-event
        simulation.
    """

    def __init__(self, loss: str | Loss = "mse", metric: str = "r2",
                 batch_size: int = 32, epochs: int = 1, lr: float = 1e-3,
                 timeout: float | None = None, train_fraction: float = 1.0,
                 seed: int = 0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not 0.0 < train_fraction <= 1.0:
            raise ValueError("train_fraction must be in (0, 1]")
        if batch_size <= 0 or epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        self.loss = get_loss(loss) if isinstance(loss, str) else loss
        self.metric = get_metric(metric)
        self.batch_size = batch_size
        self.epochs = epochs
        self.lr = lr
        self.timeout = timeout
        self.train_fraction = train_fraction
        self.seed = seed
        self.clock = clock

    def fit(self, model: GraphModel,
            x_train: dict[str, np.ndarray], y_train: np.ndarray,
            x_val: dict[str, np.ndarray] | None = None,
            y_val: np.ndarray | None = None,
            optimizer: Optimizer | None = None) -> History:
        rng = np.random.default_rng(self.seed)
        opt = optimizer or FlatAdam(model.flatten_parameters(), lr=self.lr)
        dt = model.dtype
        n = len(y_train)
        n_used = max(1, int(round(n * self.train_fraction)))
        history = History()
        start = self.clock()
        subset = rng.permutation(n)[:n_used]

        for _ in range(self.epochs):
            order = rng.permutation(n_used)
            perm = subset[order]
            # one contiguous gather (and dtype cast) per epoch;
            # batches below are zero-copy slices of these arrays
            x_epoch = {k: np.ascontiguousarray(v[perm], dtype=dt)
                       for k, v in x_train.items()}
            y_epoch = y_train[perm]
            epoch_loss = 0.0
            batches = 0
            for lo in range(0, n_used, self.batch_size):
                hi = lo + self.batch_size
                xb = {k: v[lo:hi] for k, v in x_epoch.items()}
                yb = y_epoch[lo:hi]
                pred = model.forward(xb, training=True)
                loss_val = self.loss.value(pred, yb)
                model.zero_grad()
                model.backward(self.loss.grad(pred, yb))
                opt.step()
                epoch_loss += loss_val
                batches += 1
                history.batches_seen += 1
                if self.timeout is not None \
                        and self.clock() - start > self.timeout:
                    history.timed_out = True
                    break
            if batches:
                history.epoch_losses.append(epoch_loss / batches)
            if history.timed_out:
                break

        history.train_time = self.clock() - start
        if x_val is not None and y_val is not None:
            history.val_metric = self.evaluate(model, x_val, y_val)
        return history

    def evaluate(self, model: GraphModel, x: dict[str, np.ndarray],
                 y: np.ndarray, batch_size: int = 1024) -> float:
        if model.dtype is not None:
            # cast once; per-batch slices below are then views
            x = {k: np.asarray(v, dtype=model.dtype) for k, v in x.items()}
        preds = []
        n = len(y)
        for lo in range(0, n, batch_size):
            xb = {k: v[lo:lo + batch_size] for k, v in x.items()}
            preds.append(model.forward(xb, training=False))
        return self.metric(np.concatenate(preds, axis=0), y)

