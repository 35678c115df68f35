"""Self-contained base learners operating on dense float64 matrices.

Every fit is a pure function of (X, y, params, seed); all internal
randomness comes from the seeded splitmix64 stream and every argmax
breaks ties toward the smallest class index, so repeated fits are
bit-identical. Long fits cooperate with an optional deadline, checking
it between coarse work units (per tree, per epoch, per prediction
chunk).

Logistic regression also fits a stack of equal-sized independent
problems, (r, n, d), in one call whose numpy operations serve all r at
once; each slice comes out bit-identical to fitting it alone, so callers
with many small fits (the folds of one evaluation, the estimators of one
bagging ensemble) may stack them. ``LearnerSpec.stacks`` marks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from stagedml.rng import Rng
from stagedml.timing import Deadline

_PREDICT_CHUNK = 512
_SPLIT_BLOCK = 1 << 16


def _check_columns(model_columns: int, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("prediction input must be a 2-d matrix")
    if rows.shape[1] != model_columns:
        raise ValueError(
            f"prediction input has {rows.shape[1]} columns, model was trained on {model_columns}"
        )
    return rows


# ---------------------------------------------------------------------------
# k-nearest neighbours


@dataclass
class KnnModel:
    x: np.ndarray
    y: np.ndarray
    k: int
    n_classes: int

    @property
    def n_columns(self) -> int:
        return self.x.shape[1]

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """Majority vote of the k nearest train rows; distance ties at
        the k-th place go to the earlier train row, class ties to the
        smaller class index."""
        rows = _check_columns(self.n_columns, rows)
        out = np.empty(rows.shape[0], dtype=np.int64)
        train_sq = np.einsum("ij,ij->i", self.x, self.x)
        k, n_classes = self.k, self.n_classes
        for start in range(0, rows.shape[0], _PREDICT_CHUNK):
            if deadline is not None:
                deadline.check()
            chunk = rows[start : start + _PREDICT_CHUNK]
            d2 = train_sq[None, :] - 2.0 * chunk @ self.x.T
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
            near = d2 <= kth
            # rows tied at the k-th distance select more than k train rows;
            # keep the earliest tied ones, as a stable sort would
            selected = np.count_nonzero(near, axis=1)
            for i in np.flatnonzero(selected > k):
                tied = np.flatnonzero(d2[i] == kth[i, 0])
                near[i, tied[tied.size - (selected[i] - k) :]] = False
            q, t = np.divmod(np.flatnonzero(near), near.shape[1])
            votes = np.bincount(q * n_classes + self.y[t], minlength=chunk.shape[0] * n_classes)
            out[start : start + chunk.shape[0]] = np.argmax(votes.reshape(-1, n_classes), axis=1)
        return out


def fit_knn(X, y, n_classes, params, seed=0, deadline=None) -> KnnModel:
    k = int(params["k"])
    return KnnModel(x=X, y=y, k=max(1, min(k, X.shape[0])), n_classes=n_classes)


# ---------------------------------------------------------------------------
# gaussian naive bayes


@dataclass
class GaussianNbModel:
    log_priors: np.ndarray  # (n_classes,), -inf for absent classes
    means: np.ndarray  # (n_classes, d)
    variances: np.ndarray  # (n_classes, d), smoothed
    present: np.ndarray
    n_classes: int

    @property
    def n_columns(self) -> int:
        return self.means.shape[1]

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        rows = _check_columns(self.n_columns, rows)
        if rows.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        scores = np.full((rows.shape[0], self.n_classes), -np.inf)
        for c in range(self.n_classes):
            if not self.present[c]:
                continue
            var = self.variances[c]
            ll = -0.5 * (np.log(2.0 * np.pi * var) + (rows - self.means[c]) ** 2 / var)
            scores[:, c] = self.log_priors[c] + ll.sum(axis=1)
        return np.argmax(scores, axis=1).astype(np.int64)


def fit_gaussian_nb(X, y, n_classes, params, seed=0, deadline=None) -> GaussianNbModel:
    n, d = X.shape
    means = np.zeros((n_classes, d))
    variances = np.ones((n_classes, d))
    log_priors = np.full(n_classes, -np.inf)
    present = np.zeros(n_classes, dtype=bool)
    overall_var = float(np.max(np.var(X, axis=0))) if X.size else 0.0
    eps = 1e-9 * overall_var if overall_var > 0 else 1e-12
    for c in range(n_classes):
        mask = y == c
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        present[c] = True
        log_priors[c] = math.log(cnt / n)
        means[c] = X[mask].mean(axis=0)
        variances[c] = X[mask].var(axis=0) + eps
    return GaussianNbModel(log_priors, means, variances, present, n_classes)


# ---------------------------------------------------------------------------
# CART-style decision tree (Gini)


@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    label: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class DecisionTreeModel:
    root: _TreeNode
    n_features: int
    n_classes: int

    @property
    def n_columns(self) -> int:
        return self.n_features

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        rows = _check_columns(self.n_features, rows)
        out = np.empty(rows.shape[0], dtype=np.int64)
        self._apply(self.root, rows, np.arange(rows.shape[0]), out)
        return out

    def _apply(self, node: _TreeNode, rows: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
        if node.is_leaf:
            out[idx] = node.label
            return
        go_left = rows[idx, node.feature] <= node.threshold
        self._apply(node.left, rows, idx[go_left], out)
        self._apply(node.right, rows, idx[~go_left], out)


def _majority(counts: np.ndarray) -> int:
    return int(np.argmax(counts))


def _best_split(X, y, idx, n_classes, feature_ids) -> tuple[int, float, float]:
    """Best (feature, threshold, gain) over candidate features.

    Gain is the Gini impurity reduction; ties keep the first candidate
    (lowest feature id, then lowest threshold). Returns gain -inf when
    no feature admits a valid split. Features are scored in blocks of
    at most ``_SPLIT_BLOCK`` (feature, row, class) cells at a time.
    """
    y_node = y[idx]
    n = idx.size
    counts = np.bincount(y_node, minlength=n_classes).astype(np.float64)
    gini_node = 1.0 - np.sum((counts / n) ** 2)
    best_gain = -np.inf
    best_feature = -1
    best_threshold = 0.0
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_node] = 1.0
    # the split after sorted position b - 1 has b rows on the left
    left_n = np.arange(1.0, n)
    right_n = n - left_n
    features = np.fromiter(feature_ids, dtype=np.int64)
    step = max(1, _SPLIT_BLOCK // (n * n_classes))
    for lo in range(0, features.size, step):
        block = features[lo : lo + step]
        cols = X[idx[None, :], block[:, None]]
        order = np.argsort(cols, axis=1, kind="stable")
        vs = cols[np.arange(block.size)[:, None], order]
        left_counts = np.cumsum(onehot[order], axis=1)[:, :-1]
        right_counts = counts - left_counts
        gini_left = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=2)
        gini_right = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=2)
        gains = gini_node - (left_n * gini_left + right_n * gini_right) / n
        # only a change of value is a threshold
        gains[vs[:, 1:] == vs[:, :-1]] = -np.inf
        pos = np.argmax(gains, axis=1)
        top = gains[np.arange(block.size), pos]
        f = int(np.argmax(top))
        if top[f] > best_gain:
            best_gain = float(top[f])
            best_feature = int(block[f])
            b = pos[f] + 1
            best_threshold = float((vs[f, b - 1] + vs[f, b]) / 2.0)
    return best_feature, best_threshold, best_gain


def _grow_tree(X, y, idx, n_classes, depth, max_depth, min_split, feature_sampler, rng, deadline):
    counts = np.bincount(y[idx], minlength=n_classes)
    node = _TreeNode(label=_majority(counts))
    pure = int(np.count_nonzero(counts)) <= 1
    depth_ok = max_depth <= 0 or depth < max_depth
    if pure or not depth_ok or idx.size < min_split:
        return node
    if deadline is not None:
        # raising (not truncating) keeps fitted trees a pure function of
        # (data, params, seed); a lapsed budget fails the whole evaluation
        deadline.check()
    feature_ids = feature_sampler(rng) if feature_sampler is not None else range(X.shape[1])
    feature, threshold, gain = _best_split(X, y, idx, n_classes, feature_ids)
    if feature < 0:
        # impure node but no feature separates the rows anywhere: leaf
        return node
    go_left = X[idx, feature] <= threshold
    left_idx = idx[go_left]
    right_idx = idx[~go_left]
    if left_idx.size == 0 or right_idx.size == 0:
        return node
    node.feature = feature
    node.threshold = threshold
    node.left = _grow_tree(X, y, left_idx, n_classes, depth + 1, max_depth, min_split, feature_sampler, rng, deadline)
    node.right = _grow_tree(X, y, right_idx, n_classes, depth + 1, max_depth, min_split, feature_sampler, rng, deadline)
    return node


def fit_decision_tree(X, y, n_classes, params, seed=0, deadline=None) -> DecisionTreeModel:
    max_depth = int(params["max_depth"])  # 0 means unbounded
    min_split = int(params["min_split"])
    root = _grow_tree(
        X, y, np.arange(X.shape[0]), n_classes, 0, max_depth, max(2, min_split), None, None, deadline
    )
    return DecisionTreeModel(root=root, n_features=X.shape[1], n_classes=n_classes)


# ---------------------------------------------------------------------------
# multinomial logistic regression (full-batch gradient descent)


@dataclass
class LogisticModel:
    weights: np.ndarray  # (d + 1, n_classes) or a stack (r, d + 1, n_classes); last row is the bias
    n_classes: int

    @property
    def n_columns(self) -> int:
        return self.weights.shape[-2] - 1

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """(m, d) rows -> (m,) labels. A stack of r models maps (r, m, d)
        rows to (r, m), slice i by model i, and (m, d) rows to (r, m), every
        model on the same rows."""
        if self.weights.ndim == 3 and np.ndim(rows) == 3:
            rows = np.asarray(rows, dtype=np.float64)
            if rows.shape[0] != self.weights.shape[0] or rows.shape[2] != self.n_columns:
                raise ValueError(
                    f"prediction input has shape {rows.shape}, model stack is "
                    f"{self.weights.shape[0]} models on {self.n_columns} columns"
                )
        else:
            rows = _check_columns(self.n_columns, rows)
        logits = rows @ self.weights[..., :-1, :] + self.weights[..., -1:, :]
        return np.argmax(logits, axis=-1).astype(np.int64)


def fit_logistic_regression(X, y, n_classes, params, seed=0, deadline=None) -> LogisticModel:
    """Full-batch gradient descent on the softmax loss.

    ``X`` is one (n, d) matrix with labels ``y`` of shape (n,), or a stack
    of r independent problems, (r, n, d) with (r, n), fitted together:
    every numpy call of an epoch serves all r, and each slice of the
    returned weights is bit-identical to fitting that slice alone. A
    problem whose step turns non-finite keeps its last finite weights
    (the others go on). The fit draws no randomness and ignores ``seed``.
    """
    lr = float(params["learning_rate"])
    epochs = int(params["epochs"])
    l2 = float(params["l2"])
    stacked = X.ndim == 3
    Xb = np.concatenate([X, np.ones((*X.shape[:-1], 1))], axis=-1)
    if not stacked:
        Xb, y = Xb[None], y[None]
    r, n, _ = Xb.shape
    XbT = Xb.transpose(0, 2, 1)
    W = np.zeros((r, Xb.shape[2], n_classes))
    onehot = np.zeros((r, n, n_classes))
    onehot[np.arange(r)[:, None], np.arange(n), y] = 1.0
    for epoch in range(epochs):
        if deadline is not None and epoch % 8 == 0:
            deadline.check()
        logits = Xb @ W
        logits -= logits.max(axis=2, keepdims=True)
        expl = np.exp(logits, out=logits)
        expl /= expl.sum(axis=2, keepdims=True)
        expl -= onehot
        grad = XbT @ expl
        grad /= n
        grad[:, :-1] += l2 * W[:, :-1]
        step = W - lr * grad
        # a sum of finite entries may overflow, but one with a NaN or an
        # infinity never is finite: look at the slices only then
        if not math.isfinite(step.sum()):
            finite = np.isfinite(step).all(axis=(1, 2))
            if not finite.any():
                break
            # the weights of a stopped slice stay put, so its step stays
            # non-finite in every later epoch too
            step[~finite] = W[~finite]
        W = step
    return LogisticModel(weights=W if stacked else W[0], n_classes=n_classes)


# ---------------------------------------------------------------------------
# random forest


@dataclass
class RandomForestModel:
    trees: list[DecisionTreeModel]
    n_features: int
    n_classes: int

    @property
    def n_columns(self) -> int:
        return self.n_features

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        rows = _check_columns(self.n_features, rows)
        votes = np.zeros((rows.shape[0], self.n_classes), dtype=np.int64)
        for tree in self.trees:
            if deadline is not None:
                deadline.check()
            preds = tree.predict(rows)
            votes[np.arange(rows.shape[0]), preds] += 1
        return np.argmax(votes, axis=1).astype(np.int64)


def fit_random_forest(X, y, n_classes, params, seed=0, deadline=None) -> RandomForestModel:
    n_trees = int(params["n_trees"])
    max_depth = int(params["max_depth"])
    fraction = float(params["feature_subsample"])
    n, d = X.shape
    m = max(1, int(round(fraction * d)))
    rng = Rng(seed)

    def sampler(node_rng: Rng) -> Sequence[int]:
        if m >= d:
            return range(d)
        pool = list(range(d))
        node_rng.shuffle(pool)
        return sorted(pool[:m])

    trees: list[DecisionTreeModel] = []
    for t in range(n_trees):
        if deadline is not None:
            deadline.check()
        boot = sorted(rng.randbelow(n) for _ in range(n))
        idx = np.array(boot, dtype=np.int64)
        root = _grow_tree(X[idx], y[idx], np.arange(n), n_classes, 0, max_depth, 2, sampler, rng, deadline)
        trees.append(DecisionTreeModel(root=root, n_features=d, n_classes=n_classes))
    return RandomForestModel(trees=trees, n_features=d, n_classes=n_classes)
