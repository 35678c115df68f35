"""Column-wise feature scalers with frozen fit statistics.

A scaler is fitted on training data only; transforming unseen rows uses
the fitted statistics, never the new rows' own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class StandardizeScaler:
    """Per-column mean 0, population std 1. Zero-variance columns pass
    through unchanged."""

    center: np.ndarray
    scale: np.ndarray

    def transform(self, rows: np.ndarray) -> np.ndarray:
        return (np.asarray(rows, dtype=np.float64) - self.center) / self.scale


def fit_standardize(X: np.ndarray) -> StandardizeScaler:
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        std = X.std(axis=0)  # population std
    overflowed = ~(np.isfinite(mean) & np.isfinite(std))
    if X.size and overflowed.any():
        overflowed &= np.isfinite(X).all(axis=0)
        # a finite column whose sum or squared deviations overflow: take its
        # statistics on the column divided by a power of two that brings
        # its largest magnitude below 1, then multiply them back
        cols = X[:, overflowed]
        _, exponent = np.frexp(np.abs(cols).max(axis=0))
        small = np.ldexp(cols, -exponent)
        mean[overflowed] = np.ldexp(small.mean(axis=0), exponent)
        std[overflowed] = np.ldexp(small.std(axis=0), exponent)
    degenerate = std == 0.0
    center = np.where(degenerate, 0.0, mean)
    scale = np.where(degenerate, 1.0, std)
    return StandardizeScaler(center=center, scale=scale)


@dataclass
class MinMaxScaler:
    """Per-column [0, 1] on the fit data. Zero-range columns map every
    value to the fitted constant. A finite column whose range overflows
    float64 is scaled on its halved values (``factor`` 0.5, ``span`` the
    halved range); every other column has ``factor`` 1."""

    lo: np.ndarray
    span: np.ndarray
    constant: np.ndarray
    degenerate: np.ndarray
    factor: np.ndarray

    def transform(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        # multiplying by 1 is exact, so columns with factor 1 are unchanged
        out = (rows * self.factor - self.lo * self.factor) / self.span
        if self.degenerate.any():
            out = out.copy()
            out[:, self.degenerate] = self.constant[self.degenerate]
        return out


def fit_minmax(X: np.ndarray) -> MinMaxScaler:
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    degenerate = hi == lo
    with np.errstate(over="ignore"):
        overflowed = np.isinf(hi - lo) & np.isfinite(hi) & np.isfinite(lo)
    factor = np.where(overflowed, 0.5, 1.0)
    span = np.where(degenerate, 1.0, hi * factor - lo * factor)
    return MinMaxScaler(lo=lo, span=span, constant=lo, degenerate=degenerate, factor=factor)


@dataclass
class QuantileRankScaler:
    """Empirical CDF ranks in [0, 1] per column.

    Fit values map to (average tie position) / (n - 1); unseen values
    interpolate linearly between fitted values and clamp at the ends.
    """

    uniques: list[np.ndarray]
    ranks: list[np.ndarray]

    def transform(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        out = np.empty_like(rows)
        for j in range(rows.shape[1]):
            out[:, j] = np.interp(rows[:, j], self.uniques[j], self.ranks[j])
        return out


def fit_quantile_rank(X: np.ndarray) -> QuantileRankScaler:
    n = X.shape[0]
    uniques = []
    ranks = []
    for j in range(X.shape[1]):
        col = np.sort(X[:, j])
        u, start = np.unique(col, return_index=True)
        counts = np.diff(np.append(start, n))
        avg_pos = start + (counts - 1) / 2.0
        r = avg_pos / (n - 1) if n > 1 else np.full_like(avg_pos, 0.5, dtype=np.float64)
        uniques.append(u)
        ranks.append(r.astype(np.float64))
    return QuantileRankScaler(uniques=uniques, ranks=ranks)
