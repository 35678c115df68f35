"""Homogeneous meta-learners: bagging and SAMME-style boosting.

Both wrap copies of a single base learner. Boosting uses weighted
resampling rather than sample-weight-aware base fits, since the base
learner catalog exposes no weight API; the weighted error is still
computed on the full training set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import math

import numpy as np

from stagedml.rng import Rng
from stagedml.timing import Deadline

BaseFit = Callable[..., object]  # fit(X, y, n_classes, params, seed, deadline) -> model


@dataclass
class VotingModel:
    models: list
    weights: list[float]
    n_features: int
    n_classes: int

    @property
    def n_columns(self) -> int:
        return self.n_features

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[1] != self.n_features:
            raise ValueError("prediction input column mismatch")
        scores = np.zeros((rows.shape[0], self.n_classes))
        for model, w in zip(self.models, self.weights):
            if deadline is not None:
                deadline.check()
            preds = model.predict(rows, deadline=deadline)
            scores[np.arange(rows.shape[0]), preds] += w
        return np.argmax(scores, axis=1).astype(np.int64)


def fit_bagging(base_fit: BaseFit, base_params, X, y, n_classes, params, seed=0, deadline=None) -> VotingModel:
    n_estimators = int(params["n_estimators"])
    fraction = float(params["sample_fraction"])
    replace = bool(params["replace"])
    n = X.shape[0]
    m = max(1, min(n, int(round(fraction * n))))
    rng = Rng(seed)
    models = []
    for t in range(n_estimators):
        if deadline is not None:
            deadline.check()
        if replace:
            idx = sorted(rng.randbelow(n) for _ in range(m))
        else:
            pool = list(range(n))
            rng.shuffle(pool)
            idx = sorted(pool[:m])
        idx = np.array(idx, dtype=np.int64)
        models.append(base_fit(X[idx], y[idx], n_classes, base_params, seed=rng.next_u64(), deadline=deadline))
    return VotingModel(models=models, weights=[1.0] * len(models), n_features=X.shape[1], n_classes=n_classes)


def _weighted_resample(weights: np.ndarray, n: int, rng: Rng) -> np.ndarray:
    cum = np.cumsum(weights)
    total = cum[-1]
    draws = sorted(int(np.searchsorted(cum, rng.random() * total, side="right")) for _ in range(n))
    return np.array([min(d, n - 1) for d in draws], dtype=np.int64)


def fit_adaboost(base_fit: BaseFit, base_params, X, y, n_classes, params, seed=0, deadline=None) -> VotingModel:
    """Multi-class discrete boosting (SAMME weight updates)."""
    n_estimators = int(params["n_estimators"])
    lr = float(params["learning_rate"])
    n = X.shape[0]
    k = max(2, int(len(np.unique(y))) if n_classes < 2 else n_classes)
    rng = Rng(seed)
    w = np.full(n, 1.0 / n)
    models = []
    alphas: list[float] = []
    for t in range(n_estimators):
        if deadline is not None:
            deadline.check()
        idx = _weighted_resample(w, n, rng)
        model = base_fit(X[idx], y[idx], n_classes, base_params, seed=rng.next_u64(), deadline=deadline)
        preds = model.predict(X, deadline=deadline)
        incorrect = preds != y
        err = float(np.sum(w[incorrect]))
        if err <= 0.0:
            models.append(model)
            alphas.append(1.0)
            break
        if err >= 1.0 - 1.0 / k:
            # worse than chance on the reweighted data: stop boosting
            break
        alpha = lr * (math.log((1.0 - err) / err) + math.log(k - 1.0))
        models.append(model)
        alphas.append(alpha)
        w = w * np.exp(alpha * incorrect)
        w /= w.sum()
    if not models:
        # every round was rejected; fall back to one unweighted base fit
        model = base_fit(X, y, n_classes, base_params, seed=rng.next_u64(), deadline=deadline)
        models.append(model)
        alphas.append(1.0)
    return VotingModel(models=models, weights=alphas, n_features=X.shape[1], n_classes=n_classes)
