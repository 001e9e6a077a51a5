"""Weight initialization schemes.

The paper relies on *agent-specific random weight initialization* during
reward estimation ("different agents generating the same architecture can
have different rewards"), so all initializers take an explicit
:class:`numpy.random.Generator` — global RNG state is never used.

Each initializer accepts an optional ``dtype``; when omitted, values are
returned in the substrate's configured default dtype
(:func:`repro.nn.config.get_default_dtype`).  Sampling itself happens in
float64 for a dtype-independent random stream — a float32 model built
from the same seed gets the (rounded) same initial weights as a float64
one, which is what the float32-vs-float64 equivalence tests rely on.
"""

from __future__ import annotations

import numpy as np

from . import config

__all__ = ["glorot_uniform", "orthogonal"]


def _cast(arr: np.ndarray, dtype) -> np.ndarray:
    return arr.astype(dtype if dtype is not None else config.get_default_dtype(),
                      copy=False)


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                   dtype=None) -> np.ndarray:
    """Glorot/Xavier uniform initialization (Keras ``Dense`` default)."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return _cast(rng.uniform(-limit, limit, size=shape), dtype)


def orthogonal(shape: tuple[int, int], rng: np.random.Generator,
               dtype=None) -> np.ndarray:
    """Orthogonal initialization (Keras LSTM recurrent-kernel default)."""
    rows, cols = shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # make the decomposition unique
    return _cast(q[:rows, :cols] if rows >= cols else q[:cols, :rows].T, dtype)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    # Conv kernels: (kernel, in_channels, out_channels)
    receptive = int(np.prod(shape[:-2]))
    return shape[-2] * receptive, shape[-1] * receptive
