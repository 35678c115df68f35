"""Learner-free feature relevance scores for filter-based selection.

Each scorer returns one non-negative relevance per column (higher is
better). Information-based scorers discretize numeric columns into 10
equal-width bins. Rankings derived from these scores break ties toward
the lower column index.
"""

from __future__ import annotations

import numpy as np

N_BINS = 10


def _bin_column(col: np.ndarray) -> np.ndarray:
    lo = col.min()
    hi = col.max()
    if hi == lo:
        return np.zeros(col.shape[0], dtype=np.int64)
    edges = np.linspace(lo, hi, N_BINS + 1)
    binned = np.searchsorted(edges, col, side="right") - 1
    return np.clip(binned, 0, N_BINS - 1).astype(np.int64)


def _contingency(col: np.ndarray, y: np.ndarray, n_classes: int) -> np.ndarray:
    binned = _bin_column(col)
    table = np.zeros((N_BINS, n_classes))
    np.add.at(table, (binned, y), 1.0)
    return table


def pearson_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Absolute Pearson correlation of each column with the class index."""
    yf = y.astype(np.float64)
    y_center = yf - yf.mean()
    y_norm = float(np.sqrt(np.sum(y_center**2)))
    scores = np.zeros(X.shape[1])
    if y_norm == 0.0:
        return scores
    for j in range(X.shape[1]):
        col = X[:, j] - X[:, j].mean()
        c_norm = float(np.sqrt(np.sum(col**2)))
        if c_norm == 0.0:
            continue
        scores[j] = abs(float(np.dot(col, y_center)) / (c_norm * y_norm))
    return scores


def mutual_information_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    n_classes = int(y.max()) + 1 if n else 1
    scores = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        table = _contingency(X[:, j], y, n_classes)
        pxy = table / n
        px = pxy.sum(axis=1, keepdims=True)
        py = pxy.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(pxy > 0, pxy / (px @ py), 1.0)
            terms = np.where(pxy > 0, pxy * np.log(ratio), 0.0)
        scores[j] = max(0.0, float(terms.sum()))
    return scores


def chi_squared_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    n_classes = int(y.max()) + 1 if n else 1
    scores = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        table = _contingency(X[:, j], y, n_classes)
        row = table.sum(axis=1, keepdims=True)
        col = table.sum(axis=0, keepdims=True)
        expected = row @ col / n
        mask = expected > 0
        scores[j] = float(np.sum((table[mask] - expected[mask]) ** 2 / expected[mask]))
    return scores


def variance_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.var(X, axis=0)


def ranking_from_scores(scores: np.ndarray) -> list[int]:
    """Column indices sorted best-first; exact ties keep ascending index."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return [int(j) for j in order]
