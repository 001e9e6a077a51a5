"""Synthetic stand-ins for the CANDLE data sets.

The real NCI-ALMANAC / multi-source dose-response / RNA-seq data is not
available offline, so each generator produces data with the same *input
structure* as the corresponding CANDLE benchmark (§2), driven by a seeded
smooth nonlinear ground truth:

* **Combo** — three inputs (cell expression, two drug-descriptor vectors)
  where the target is symmetric in the two drugs (drug-pair synergy), so
  the weight-shared drug submodel is the *right* inductive bias;
* **Uno** — four inputs including a scalar dose, with a multiplicative
  dose-response curve, so architectures that keep the dose signal win;
* **NT3** — a long 1-D expression profile whose class is determined by
  localized motifs, so 1-D convolutions are the right primitive.

All generators draw low-dimensional latent factors and lift them through
random nonlinear maps; a feature-dimension therefore carries redundant,
correlated signal — like real omics data — and small networks can reach
high R²/accuracy, which keeps post-training cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset", "make_combo_data", "make_uno_data", "make_nt3_data",
           "one_hot"]


@dataclass
class Dataset:
    """Train/validation split with named multi-input features."""

    x_train: dict[str, np.ndarray]
    y_train: np.ndarray
    x_val: dict[str, np.ndarray]
    y_val: np.ndarray
    input_shapes: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.input_shapes:
            self.input_shapes = {k: v.shape[1:] for k, v in self.x_train.items()}
        n = len(self.y_train)
        for k, v in self.x_train.items():
            if len(v) != n:
                raise ValueError(f"input {k!r} has {len(v)} rows, expected {n}")


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels.astype(int)] = 1.0
    return out


def _lift(z: np.ndarray, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Lift latent factors to ``dim`` noisy, correlated observed features."""
    w = rng.standard_normal((z.shape[1], dim)) / np.sqrt(z.shape[1])
    x = np.tanh(z @ w) + 0.05 * rng.standard_normal((z.shape[0], dim))
    return x


def make_combo_data(n_train: int = 1024, n_val: int = 256,
                    cell_dim: int = 60, drug_dim: int = 80,
                    latent: int = 6, noise: float = 0.05,
                    seed: int = 0) -> Dataset:
    """Drug-pair growth regression with a drug-symmetric ground truth."""
    rng = np.random.default_rng(seed)
    n = n_train + n_val
    zc = rng.standard_normal((n, latent))
    z1 = rng.standard_normal((n, latent))
    z2 = rng.standard_normal((n, latent))

    cell = _lift(zc, cell_dim, rng)
    w_drug = rng.standard_normal((latent, drug_dim)) / np.sqrt(latent)
    drug1 = np.tanh(z1 @ w_drug) + 0.05 * rng.standard_normal((n, drug_dim))
    drug2 = np.tanh(z2 @ w_drug) + 0.05 * rng.standard_normal((n, drug_dim))

    a = rng.standard_normal(latent)
    b = rng.standard_normal(latent)
    m = rng.standard_normal((latent, latent)) / latent
    # growth %: cell effect + symmetric single-drug effects + symmetric
    # drug-drug synergy modulated by the cell line
    y = (np.tanh(zc @ a)
         + np.tanh(z1 @ b) + np.tanh(z2 @ b)
         + np.sum((z1 @ m) * z2, axis=1) * np.tanh(zc @ a) * 0.5
         + noise * rng.standard_normal(n))
    y = ((y - y.mean()) / y.std())[:, None]

    x = {"cell_expression": cell, "drug1_descriptors": drug1,
         "drug2_descriptors": drug2}
    return Dataset(
        {k: v[:n_train] for k, v in x.items()}, y[:n_train],
        {k: v[n_train:] for k, v in x.items()}, y[n_train:])


def make_uno_data(n_train: int = 768, n_val: int = 192,
                  rna_dim: int = 60, desc_dim: int = 90, fp_dim: int = 40,
                  latent: int = 6, noise: float = 0.05,
                  seed: int = 0) -> Dataset:
    """Single-drug dose-response regression with a scalar dose input."""
    rng = np.random.default_rng(seed)
    n = n_train + n_val
    zc = rng.standard_normal((n, latent))
    zd = rng.standard_normal((n, latent))

    rna = _lift(zc, rna_dim, rng)
    desc = _lift(zd, desc_dim, rng)
    fp = (rng.random((n, fp_dim)) < _sigmoid_rows(zd, fp_dim, rng)).astype(float)
    dose = rng.uniform(-1.0, 1.0, size=(n, 1))

    a = rng.standard_normal(latent)
    b = rng.standard_normal(latent)
    # Hill-like response: a cell×drug sensitivity interaction scaled by
    # dose, a population-level dose main effect, and additive cell/drug
    # effects — balanced so shallow networks reach moderate R² quickly
    # while the interaction leaves headroom for better architectures
    sensitivity = np.tanh(zc @ a) * np.tanh(zd @ b)
    hill = 1.0 / (1.0 + np.exp(-3.0 * dose[:, 0]))
    y = 0.8 * sensitivity * hill + 0.5 * (hill - 0.5) \
        + 0.5 * np.tanh(zc @ b) + 0.4 * np.tanh(zd @ a) \
        + noise * rng.standard_normal(n)
    y = ((y - y.mean()) / y.std())[:, None]

    x = {"cell_rnaseq": rna, "dose": dose, "drug_descriptors": desc,
         "drug_fingerprints": fp}
    return Dataset(
        {k: v[:n_train] for k, v in x.items()}, y[:n_train],
        {k: v[n_train:] for k, v in x.items()}, y[n_train:])


def _sigmoid_rows(z: np.ndarray, dim: int, rng: np.random.Generator) -> np.ndarray:
    w = rng.standard_normal((z.shape[1], dim)) / np.sqrt(z.shape[1])
    return 1.0 / (1.0 + np.exp(-(z @ w)))


def make_nt3_data(n_train: int = 256, n_val: int = 96, length: int = 180,
                  num_classes: int = 2, noise: float = 0.4,
                  seed: int = 0) -> Dataset:
    """Tumor-vs-normal classification over a long 1-D expression profile.

    Each class plants class-specific bump motifs at class-specific loci on
    a smooth background, so convolutional feature extraction genuinely
    helps; labels are one-hot (softmax output head).
    """
    if length < 71:
        raise ValueError("length must be >= 71 to keep the NT3 space valid")
    rng = np.random.default_rng(seed)
    n = n_train + n_val
    labels = rng.integers(num_classes, size=n)
    t = np.arange(length)

    # class templates: gaussian bumps at interleaved, class-specific loci
    # (deterministic placement guarantees separable classes at any seed)
    templates = np.zeros((num_classes, length))
    bumps = 3
    for c in range(num_classes):
        for k in range(bumps):
            frac = (c + num_classes * k + 1) / (num_classes * bumps + 1)
            center = frac * length
            width = rng.uniform(2.0, 5.0)
            sign = 1.0 if (c + k) % 2 == 0 else -1.0
            templates[c] += sign * np.exp(-0.5 * ((t - center) / width) ** 2)

    background = np.sin(2 * np.pi * t / length * rng.uniform(1, 3))
    x = (background + templates[labels]
         + noise * rng.standard_normal((n, length)))
    x = x[:, :, None]  # (n, length, channels=1)
    y = one_hot(labels, num_classes)

    return Dataset({"rnaseq_expression": x[:n_train]}, y[:n_train],
                   {"rnaseq_expression": x[n_train:]}, y[n_train:])
