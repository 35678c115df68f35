"""Homogeneous meta-learners: bagging and SAMME-style boosting.

Both wrap copies of a single base learner. Boosting uses weighted
resampling rather than sample-weight-aware base fits, since the base
learner catalog exposes no weight API; the weighted error is still
computed on the full training set.

Like a base learner, both fit one (n, d) problem or a stack of r
independent ones, ``X`` (r, n, d) and ``y`` (r, n) with a sequence of r
seeds; slice i comes out exactly as fitting it alone with seed i would.
The base learner is fitted on stacks: bagging fits the estimators of all
slices in stacked chunks, and boosting fits round t of every slice still
boosting in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from stagedml.components.learners import STACK_CELLS, as_stack
from stagedml.rng import Rng, below, next_u64_block, shuffled_block, streams
from stagedml.timing import Deadline

if TYPE_CHECKING:
    from stagedml.components.registry import LearnerSpec


@dataclass
class VotingModel:
    """Weighted vote of base models over a stack of ``n_slices`` problems.

    Each member is ``(model, slices, weights)``: a stacked model whose
    slice i votes for stack slice ``slices[i]`` with weight ``weights[i]``.
    Votes add up in member order.
    """

    members: list
    n_slices: int
    n_features: int
    n_classes: int
    stacked: bool

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """(m, d) rows -> (m,) labels; for a stack, (r, m, d) -> (r, m),
        slice i by the members of slice i. Score ties go to the smaller
        class index."""
        rows = np.asarray(rows, dtype=np.float64)
        if not self.stacked:
            rows = rows[None]
        if rows.ndim != 3 or rows.shape[0] != self.n_slices or rows.shape[2] != self.n_features:
            raise ValueError("prediction input column mismatch")
        m = rows.shape[1]
        scores = np.zeros((self.n_slices, m, self.n_classes))
        for model, slices, weights in self.members:
            if deadline is not None:
                deadline.check()
            preds = model.predict(rows[slices], deadline=deadline)
            # unbuffered, so the votes of one slice add up in estimator order
            np.add.at(scores, (slices[:, None], np.arange(m), preds), np.reshape(weights, (-1, 1)))
        labels = np.argmax(scores, axis=2).astype(np.int64)
        return labels if self.stacked else labels[0]


def fit_bagging(base: LearnerSpec, base_params, X, y, n_classes, params, seed=0, deadline=None) -> VotingModel:
    """Unweighted vote of base fits on row samples.

    Each slice draws every estimator's rows and fit seed first, in
    estimator order, from its own stream. The base learner is then
    fitted on chunks of the estimators of all slices at once, each holding
    at most ``STACK_CELLS`` cells of sampled data.
    """
    n_estimators = int(params["n_estimators"])
    fraction = float(params["sample_fraction"])
    replace = bool(params["replace"])
    X, y, seeds, stacked = as_stack(X, y, seed)
    r, n, d = X.shape
    m = max(1, min(n, int(round(fraction * n))))
    # per estimator: m row draws, or the n - 1 draws of a shuffle; then a seed
    draws = m if replace else n - 1
    raw = next_u64_block(streams(seeds), n_estimators * (draws + 1)).reshape(r * n_estimators, draws + 1)
    fit_seeds = raw[:, draws].tolist()
    if replace:
        samples = np.sort(below(raw[:, :m], n), axis=1)
    else:
        samples = np.sort(shuffled_block(below(raw[:, : n - m], np.arange(n, m, -1)), n)[:, :m], axis=1)
    owner = np.arange(r).repeat(n_estimators)
    chunk = max(1, STACK_CELLS // max(1, m * d))
    members = []
    for lo in range(0, r * n_estimators, chunk):
        if deadline is not None:
            deadline.check()
        at = slice(lo, lo + chunk)
        rows = (owner[at, None], samples[at])
        model = base.fit(X[rows], y[rows], n_classes, base_params, seed=fit_seeds[at], deadline=deadline)
        members.append((model, owner[at], [1.0] * len(fit_seeds[at])))
    return VotingModel(members=members, n_slices=r, n_features=d, n_classes=n_classes, stacked=stacked)


def _weighted_resample(weights: np.ndarray, n: int, rng: Rng) -> np.ndarray:
    """n rows drawn with probability proportional to ``weights``, sorted:
    one block of ``random()`` and one ``searchsorted``."""
    cum = np.cumsum(weights)
    draws = np.searchsorted(cum, rng.random_block(n) * cum[-1], side="right")
    return np.minimum(np.sort(draws), n - 1)


def fit_adaboost(base: LearnerSpec, base_params, X, y, n_classes, params, seed=0, deadline=None) -> VotingModel:
    """Multi-class discrete boosting (SAMME weight updates).

    Every slice boosts with its own stream, weights and stopping round.
    The base learner fits each round of all slices still boosting in one
    call; a slice that stops on a round worse than chance votes with
    weight 0 in that round, which changes no score.
    """
    n_estimators = int(params["n_estimators"])
    lr = float(params["learning_rate"])
    X, y, seeds, stacked = as_stack(X, y, seed)
    r, n, d = X.shape
    rngs = [Rng(s) for s in seeds]
    k = [max(2, int(len(np.unique(y[i]))) if n_classes < 2 else n_classes) for i in range(r)]
    w = [np.full(n, 1.0 / n) for _ in range(r)]
    members = []
    voted = [False] * r
    boosting = list(range(r))
    for _ in range(n_estimators):
        if not boosting:
            break
        if deadline is not None:
            deadline.check()
        slices = np.array(boosting)
        rows = (slices[:, None], np.stack([_weighted_resample(w[i], n, rngs[i]) for i in boosting]))
        fit_seeds = [rngs[i].next_u64() for i in boosting]
        model = base.fit(X[rows], y[rows], n_classes, base_params, seed=fit_seeds, deadline=deadline)
        preds = model.predict(X[slices], deadline=deadline)
        alphas, still = [], []
        for i, p in zip(boosting, preds):
            incorrect = p != y[i]
            err = float(np.sum(w[i][incorrect]))
            if err <= 0.0:
                alphas.append(1.0)
                voted[i] = True
            elif err >= 1.0 - 1.0 / k[i]:
                # worse than chance on the reweighted data: stop boosting
                alphas.append(0.0)
            else:
                alpha = lr * (math.log((1.0 - err) / err) + math.log(k[i] - 1.0))
                alphas.append(alpha)
                voted[i] = True
                w[i] = w[i] * np.exp(alpha * incorrect)
                w[i] /= w[i].sum()
                still.append(i)
        members.append((model, slices, alphas))
        boosting = still
    # a slice whose every round was rejected falls back to one unweighted base fit
    fallback = np.flatnonzero(~np.array(voted))
    if fallback.size:
        fit_seeds = [rngs[i].next_u64() for i in fallback]
        model = base.fit(X[fallback], y[fallback], n_classes, base_params, seed=fit_seeds, deadline=deadline)
        members.append((model, fallback, [1.0] * fallback.size))
    return VotingModel(members=members, n_slices=r, n_features=d, n_classes=n_classes, stacked=stacked)
