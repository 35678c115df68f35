"""Homogeneous meta-learners: bagging and SAMME-style boosting.

Both wrap copies of a single base learner. Boosting uses weighted
resampling rather than sample-weight-aware base fits, since the base
learner catalog exposes no weight API; the weighted error is still
computed on the full training set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import math

import numpy as np

from stagedml.rng import Rng
from stagedml.timing import Deadline

if TYPE_CHECKING:
    from stagedml.components.registry import LearnerSpec

# most (row, column) cells of sampled data fitted in one stacked base fit
_STACK_CELLS = 1 << 16


@dataclass
class VotingModel:
    models: list  # each predicts (m,) labels, or (s, m) for a stack of s estimators
    weights: list[float]  # one per estimator, in model order
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
        weights = iter(self.weights)
        for model in self.models:
            if deadline is not None:
                deadline.check()
            for preds in np.atleast_2d(model.predict(rows, deadline=deadline)):
                scores[np.arange(rows.shape[0]), preds] += next(weights)
        return np.argmax(scores, axis=1).astype(np.int64)


def fit_bagging(base: LearnerSpec, base_params, X, y, n_classes, params, seed=0, deadline=None) -> VotingModel:
    """Unweighted vote of base fits on row samples.

    Every estimator's rows and fit seed are drawn first, in estimator
    order. A base learner that stacks is then fitted on chunks of
    estimators at once, each holding at most ``_STACK_CELLS`` cells of
    sampled data, and its stacked models vote slice by slice; any other
    base learner is fitted one estimator at a time.
    """
    n_estimators = int(params["n_estimators"])
    fraction = float(params["sample_fraction"])
    replace = bool(params["replace"])
    n, d = X.shape
    m = max(1, min(n, int(round(fraction * n))))
    rng = Rng(seed)
    samples, seeds = [], []
    for _ in range(n_estimators):
        if replace:
            samples.append(sorted(rng.randbelow(n) for _ in range(m)))
        else:
            pool = list(range(n))
            rng.shuffle(pool)
            samples.append(sorted(pool[:m]))
        seeds.append(rng.next_u64())
    samples = np.array(samples, dtype=np.int64)
    chunk = max(1, _STACK_CELLS // max(1, m * d)) if base.stacks else 1
    models = []
    for lo in range(0, n_estimators, chunk):
        if deadline is not None:
            deadline.check()
        if base.stacks:
            idx = samples[lo : lo + chunk]
            models.append(base.fit(X[idx], y[idx], n_classes, base_params, deadline=deadline))
        else:
            idx = samples[lo]
            models.append(base.fit(X[idx], y[idx], n_classes, base_params, seed=seeds[lo], deadline=deadline))
    return VotingModel(models=models, weights=[1.0] * n_estimators, n_features=d, n_classes=n_classes)


def _weighted_resample(weights: np.ndarray, n: int, rng: Rng) -> np.ndarray:
    cum = np.cumsum(weights)
    total = cum[-1]
    draws = sorted(int(np.searchsorted(cum, rng.random() * total, side="right")) for _ in range(n))
    return np.array([min(d, n - 1) for d in draws], dtype=np.int64)


def fit_adaboost(base: LearnerSpec, base_params, X, y, n_classes, params, seed=0, deadline=None) -> VotingModel:
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
        model = base.fit(X[idx], y[idx], n_classes, base_params, seed=rng.next_u64(), deadline=deadline)
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
        model = base.fit(X, y, n_classes, base_params, seed=rng.next_u64(), deadline=deadline)
        models.append(model)
        alphas.append(1.0)
    return VotingModel(models=models, weights=alphas, n_features=X.shape[1], n_classes=n_classes)
