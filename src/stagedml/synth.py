"""Synthetic datasets for desk-scale experiments.

Four generators exercise the phenomena the stage scheme is built to
exploit: clean separability, informative-vs-noise feature selection,
scale-dominated distance metrics, and pure label noise. All generation
runs through the deterministic splitmix64 stream, so a (kind, n, d,
seed) tuple always produces the same file bytes.
"""

from __future__ import annotations

import numpy as np

from stagedml.data import ColumnOrigin, Dataset
from stagedml.rng import Rng

SYNTH_KINDS = ("separable", "madelon_like", "scale_sensitive", "noise_only")
LABEL_NOISE = 0.05  # share of ``madelon_like`` labels flipped


def _balanced_labels(n: int, rng: Rng) -> np.ndarray:
    labels = [0] * (n // 2) + [1] * (n - n // 2)
    rng.shuffle(labels)
    return np.array(labels, dtype=np.int64)


def _wrap(x: np.ndarray, y: np.ndarray) -> Dataset:
    d = x.shape[1]
    names = [f"x{j}" for j in range(d)]
    return Dataset(
        instances=x,
        labels=y,
        feature_names=names,
        source_columns=[ColumnOrigin(source=nm, kind="numeric") for nm in names],
        class_names=["a", "b"],
    )


def separable(n: int, d: int, seed: int) -> Dataset:
    """Two unit-variance Gaussian blobs, class means 0 and 4 in every
    dimension, so a mean threshold on any single column already works."""
    rng = Rng(seed)
    y = _balanced_labels(n, rng)
    x = np.empty((n, d))
    for i in range(n):
        mu = 4.0 if y[i] else 0.0
        for j in range(d):
            x[i, j] = rng.gauss(mu, 1.0)
    return _wrap(x, y)


def madelon_like(n: int, d: int, seed: int, informative: int = 5) -> Dataset:
    """Linear rule over ``informative`` columns, the rest pure noise,
    with a ``LABEL_NOISE`` fraction of labels flipped."""
    k = min(informative, d)
    rng = Rng(seed)
    signs = [1.0 if rng.random() < 0.5 else -1.0 for _ in range(k)]
    x = np.empty((n, d))
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        for j in range(d):
            x[i, j] = rng.gauss()
        score = sum(signs[j] * x[i, j] for j in range(k))
        label = 1 if score > 0.0 else 0
        if rng.random() < LABEL_NOISE:
            label = 1 - label
        y[i] = label
    return _wrap(x, y)


def scale_sensitive(n: int, d: int, seed: int) -> Dataset:
    """Well-separated informative columns plus one sigma=1000 noise
    column that dominates unscaled Euclidean distances."""
    if d < 2:
        raise ValueError("scale_sensitive needs d >= 2 (informative plus noise column)")
    k = min(3, d - 1)
    rng = Rng(seed)
    y = _balanced_labels(n, rng)
    x = np.empty((n, d))
    for i in range(n):
        mu = 3.0 if y[i] else -3.0
        for j in range(d):
            if j < k:
                x[i, j] = rng.gauss(mu, 1.0)
            elif j == k:
                x[i, j] = rng.gauss(0.0, 1000.0)
            else:
                x[i, j] = rng.gauss()
    return _wrap(x, y)


def noise_only(n: int, d: int, seed: int) -> Dataset:
    """Labels independent of every feature; the best achievable expected
    error is one minus the majority class prior."""
    rng = Rng(seed)
    x = np.empty((n, d))
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        for j in range(d):
            x[i, j] = rng.gauss()
        y[i] = 1 if rng.random() < 0.5 else 0
    return _wrap(x, y)


def make_dataset(kind: str, n: int, d: int, seed: int, *, informative: int = 5) -> Dataset:
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; expected one of {SYNTH_KINDS}")
    if n < 20:
        raise ValueError("synthetic datasets need n >= 20")
    if d < 1:
        raise ValueError("synthetic datasets need d >= 1")
    if kind == "separable":
        return separable(n, d, seed)
    if kind == "madelon_like":
        return madelon_like(n, d, seed, informative=informative)
    if kind == "scale_sensitive":
        return scale_sensitive(n, d, seed)
    return noise_only(n, d, seed)
