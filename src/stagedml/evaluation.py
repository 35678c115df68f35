"""Candidate pipelines and their Monte-Carlo cross-validation scores.

A candidate is the tuple (scaler, feature set, learner, params), with an
optional homogeneous meta-learner wrapped around the learner. Blank
slots are real absent values (``None``), never sentinel strings.
A candidate becomes a fitted model in one way: it is checked against the
registry, the scaler is fitted on the training matrix, the feature
columns are taken as an array slice and the learner's (or
meta-learner's) fit runs on ``(X, y, n_classes)``. ``fit_pipeline`` does
that for one training set; ``mccv_score`` scales every fold the same way
and fits all folds as one stack.

Scoring runs ``repeats`` stratified splits of the optimization data.
The split seeds derive from (seed, repeat index) only, so every
candidate in a run is scored on the *same* folds (paired comparisons);
fit seeds additionally mix in the candidate key, so stochastic learners
stay decorrelated without depending on evaluation order. A fold is a
pair of row-index arrays over the one optimization matrix; an
``Evaluator`` draws the folds once per (seed, repeats, train_fraction)
and shares them across all its candidates. Scores are cached by
(candidate key, dataset hash, config); lower is better.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from stagedml.components.registry import Registry, ScalerSpec
from stagedml.data import Dataset, FeatureSet, SplitSpec, split_indices
from stagedml.data import project  # noqa: F401  (kept importable from this module)
from stagedml.rng import derive_seed
from stagedml.timing import Deadline, DeadlineExceeded

STATUS_OK = "ok"
STATUS_TIMEOUT = "failed_timeout"
STATUS_ERROR = "failed_error"


@dataclass(frozen=True)
class Candidate:
    """Encoding of one pipeline: (scaler, features, learner, params)."""

    learner: str
    params: Mapping | None = None  # None means registry defaults
    scaler: str | None = None
    features: FeatureSet | None = None
    meta: str | None = None  # meta-learner wrapped around `learner`
    meta_params: Mapping | None = None

    def with_features(self, features: FeatureSet | None) -> "Candidate":
        return replace(self, features=features)

    def with_meta(self, meta: str, meta_params: Mapping | None = None) -> "Candidate":
        return replace(self, meta=meta, meta_params=meta_params)

    def with_params(self, params: Mapping) -> "Candidate":
        return replace(self, params=params)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _format_params(params: Mapping | None) -> str:
    if params is None:
        return "default"
    return ",".join(f"{k}={_format_value(params[k])}" for k in sorted(params))


def candidate_key(c: Candidate) -> str:
    """Canonical string form, stable across runs.

    Grammar::

        key      := scaler "|" features "|" learner "|" params
        scaler   := "-" | scaler_id
        features := "-" | index ("," index)*          # ascending
        learner  := base_id | meta_id "{" params "}" "(" base_id ")"
        params   := "default" | name "=" value (","...)  # sorted names

    Floats are rendered with ``repr`` (shortest round-trip form), bools
    as ``true``/``false``.
    """
    scaler = c.scaler if c.scaler is not None else "-"
    features = ",".join(str(i) for i in c.features) if c.features is not None else "-"
    if c.meta is not None:
        learner = f"{c.meta}{{{_format_params(c.meta_params)}}}({c.learner})"
    else:
        learner = c.learner
    return f"{scaler}|{features}|{learner}|{_format_params(c.params)}"


def candidate_to_dict(c: Candidate) -> dict:
    return {
        "scaler": c.scaler,
        "features": list(c.features) if c.features is not None else None,
        "learner": c.learner,
        "params": dict(c.params) if c.params is not None else None,
        "meta": c.meta,
        "meta_params": dict(c.meta_params) if c.meta_params is not None else None,
    }


def candidate_from_dict(d: Mapping) -> Candidate:
    return Candidate(
        learner=d["learner"],
        params=d.get("params"),
        scaler=d.get("scaler"),
        features=FeatureSet(d["features"]) if d.get("features") else None,
        meta=d.get("meta"),
        meta_params=d.get("meta_params"),
    )


@dataclass(frozen=True)
class EvalConfig:
    repeats: int = 5
    train_fraction: float = 0.7
    metric: str = "error_rate"
    seed: int = 0
    per_eval_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if self.metric != "error_rate":
            raise ValueError(f"unsupported metric {self.metric!r}; only error_rate ships")

    def key(self) -> str:
        return (
            f"r={self.repeats};f={self.train_fraction!r};m={self.metric};"
            f"s={self.seed};t={self.per_eval_timeout!r}"
        )


@dataclass(frozen=True)
class Score:
    """MCCV result; ``mean`` is None unless status is ok."""

    mean: float | None
    std: float | None
    per_fold: tuple[float, ...]
    status: str = STATUS_OK

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def error_rate(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("prediction/label length mismatch")
    if y_true.size == 0:
        raise ValueError("error_rate of empty vectors is undefined")
    return float(np.mean(y_true != y_pred))


# ---------------------------------------------------------------------------
# pipeline fitting


@dataclass
class FittedPipeline:
    scaler: object | None
    features: FeatureSet | None
    model: object
    n_columns: int

    def predict(self, rows: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        return self.model.predict(self.transform(rows), deadline=deadline)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` scaled and restricted to the pipeline's features: the
        input of its model."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.n_columns:
            raise ValueError("prediction input column mismatch with pipeline")
        if self.scaler is not None:
            rows = self.scaler.transform(rows)
        if self.features is not None:
            rows = rows[:, list(self.features.indices)]
        return rows


def _resolve_candidate(candidate: Candidate, registry: Registry) -> tuple[ScalerSpec | None, Callable]:
    """The candidate's scaler spec and the fit of its model,
    ``fit(X, y, n_classes, seed, deadline)``: the learner's fit with
    merged params, wrapped in its meta-learner's if it has one.

    Raises ``UnknownComponentError`` for an unknown id and ``ValueError``
    for a bare meta-learner, a meta-of-meta, a non-meta learner in the
    meta slot or params outside a declared space.
    """
    base = registry.learner(candidate.learner)
    meta = meta_params = None
    if candidate.meta is not None:
        meta = registry.learner(candidate.meta)
        if not meta.is_meta:
            raise ValueError(f"{candidate.meta!r} is not a meta-learner")
        if base.is_meta:
            raise ValueError("meta-of-meta candidates are rejected")
        meta_params = registry.effective_params(candidate.meta, candidate.meta_params)
    elif base.is_meta:
        raise ValueError(f"{candidate.learner!r} is a meta-learner and needs a base learner")
    params = registry.effective_params(candidate.learner, candidate.params)
    scaler = registry.scaler(candidate.scaler) if candidate.scaler is not None else None

    def fit(X, y, n_classes, seed, deadline):
        if meta is None:
            return base.fit(X, y, n_classes, params, seed=seed, deadline=deadline)
        return meta.fit(base, params, X, y, n_classes, meta_params, seed=seed, deadline=deadline)

    return scaler, fit


def _prepare(
    candidate: Candidate, scaler_spec: ScalerSpec | None, X: np.ndarray
) -> tuple[FittedPipeline, np.ndarray]:
    """The candidate's pipeline on the training matrix ``X`` with its
    scaler fitted but no model yet, and the training matrix of that model:
    ``X`` scaled, then restricted to the candidate's features.

    Raises ``ValueError`` for empty training data, scaled training data
    that are not finite or a feature index out of range.
    """
    n_columns = X.shape[1]
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    scaler = None
    if scaler_spec is not None:
        scaler = scaler_spec.fit(X)
        X = scaler.transform(X)
        if not np.all(np.isfinite(X)):
            raise ValueError(f"scaler {candidate.scaler!r} produced NaN/Inf on the training data")
    if candidate.features is not None:
        cols = list(candidate.features.indices)
        if cols[-1] >= X.shape[1]:
            raise ValueError(f"feature index {cols[-1]} out of range for {X.shape[1]} columns")
        X = X[:, cols]
    return FittedPipeline(scaler=scaler, features=candidate.features, model=None, n_columns=n_columns), X


def fit_pipeline(
    candidate: Candidate,
    train: Dataset,
    registry: Registry,
    seed: int = 0,
    deadline: Deadline | None = None,
) -> FittedPipeline:
    """Fit scaler -> feature columns -> (meta-wrapped) learner on ``train``.

    The scaler is fitted on all columns, then the feature columns are
    taken from its output. Besides the candidate errors of
    ``_resolve_candidate``, raises ``ValueError`` for empty training data,
    a feature index out of range or scaled training data that are not
    finite.
    """
    scaler_spec, fit = _resolve_candidate(candidate, registry)
    pipeline, X = _prepare(candidate, scaler_spec, train.instances)
    pipeline.model = fit(X, train.labels, len(train.class_names), seed, deadline)
    return pipeline


# ---------------------------------------------------------------------------
# MCCV scoring


def mccv_splits(dataset: Dataset, cfg: EvalConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """The stratified (train, validation) row partitions of one run.

    Split seeds mix (cfg.seed, repeat index) only, so all candidates
    evaluated under one config share folds pairwise. Train sizes depend
    only on the labels and the train fraction, so every fold has as many
    train rows (and validation rows) as every other.
    """
    out = []
    for r in range(cfg.repeats):
        spec = SplitSpec(train_fraction=cfg.train_fraction, seed=derive_seed(cfg.seed, "mccv", r))
        out.append(split_indices(dataset.labels, spec, stratified=True))
    return out


def mccv_score(
    candidate: Candidate,
    dataset: Dataset,
    cfg: EvalConfig,
    registry: Registry,
    deadline: Deadline | None = None,
    folds: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
    fold_listener: Callable | None = None,
) -> Score:
    """Average validation error over `repeats` stratified splits.

    ``folds`` are the (train, validation) row indices of ``mccv_splits``
    when the caller already holds them; by default they are drawn here.
    ``fold_listener(key, r, train, val)``, if given, sees the raw train
    and validation matrices of every fold before any fit; an invalid
    candidate is rejected before the first fold. Each fold is scaled and
    restricted to the candidate's features as ``fit_pipeline`` would do
    it, then all folds are fitted in one stacked call, fold r with seed
    ``derive_seed(cfg.seed, "fit", key, r)``, and predicted in one
    stacked call of the model.

    Failures are statuses, not exceptions: a lapsed deadline yields
    ``failed_timeout`` (partial folds discarded), an invalid candidate,
    a learner error or labels that cannot be split yield
    ``failed_error``. Single-class data scores 0 trivially.
    """
    if len(np.unique(dataset.labels)) < 2:
        return Score(mean=0.0, std=0.0, per_fold=(0.0,) * cfg.repeats, status=STATUS_OK)
    key = candidate_key(candidate)
    effective = Deadline.earliest(deadline, Deadline(cfg.per_eval_timeout))
    try:
        scaler_spec, fit = _resolve_candidate(candidate, registry)  # reject before any fold
        if folds is None:
            folds = mccv_splits(dataset, cfg)
        X, y = dataset.instances, dataset.labels
        train_X, val_X = [], []
        for r, (train, val) in enumerate(folds):
            effective.check()
            train_rows, val_rows = X[train], X[val]
            if fold_listener is not None:
                fold_listener(key, r, train_rows, val_rows)
            pipeline, model_X = _prepare(candidate, scaler_spec, train_rows)
            train_X.append(model_X)
            val_X.append(pipeline.transform(val_rows))
        train_y = y[np.stack([train for train, _ in folds])]
        seeds = [derive_seed(cfg.seed, "fit", key, r) for r in range(len(folds))]
        model = fit(np.stack(train_X), train_y, len(dataset.class_names), seeds, effective)
        preds = model.predict(np.stack(val_X), deadline=effective)
        per_fold = [error_rate(y[val], p) for (_, val), p in zip(folds, preds)]
    except DeadlineExceeded:
        return Score(mean=None, std=None, per_fold=(), status=STATUS_TIMEOUT)
    except Exception:
        return Score(mean=None, std=None, per_fold=(), status=STATUS_ERROR)
    scores = np.array(per_fold)
    return Score(
        mean=float(scores.mean()),
        std=float(scores.std()),
        per_fold=tuple(float(v) for v in scores),
        status=STATUS_OK,
    )


# ---------------------------------------------------------------------------
# caching evaluator with journal


@dataclass
class JournalRecord:
    candidate_key: str
    stage: str
    mean: float | None
    std: float | None
    per_fold: tuple[float, ...]
    status: str
    wall_ms: float
    seed: int
    auxiliary: bool = False

    def to_dict(self) -> dict:
        return {
            "candidate_key": self.candidate_key,
            "stage": self.stage,
            "mean": self.mean,
            "std": self.std,
            "per_fold": list(self.per_fold),
            "status": self.status,
            "wall_ms": self.wall_ms,
            "seed": self.seed,
            "auxiliary": self.auxiliary,
        }


@dataclass
class Evaluator:
    """Scores candidates on one optimization dataset, with caching.

    The folds of each (seed, repeats, train_fraction), row-index pairs
    into ``dataset``, are drawn once, on first use, and shared by every
    later candidate; ``dataset`` is write-protected and never changes, so
    sharing them cannot leak state between candidates.

    ``evaluate`` is safe to call concurrently: the cache, fold cache and
    journal are lock-protected and seeds derive from candidate keys,
    never from arrival order; a key being scored is waited for, never
    scored twice. ``fold_listener`` (if set) observes every fitted fold;
    tests use it for leakage bookkeeping.
    """

    registry: Registry
    dataset: Dataset
    cfg: EvalConfig
    fold_listener: Callable | None = None
    _cache: dict = field(default_factory=dict)
    _journal: list = field(default_factory=list)
    _by_key: dict = field(default_factory=dict)
    _fold_cache: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _scoring: dict = field(default_factory=dict)  # cache key -> lock held while it is scored

    def __post_init__(self) -> None:
        self._dataset_hash = self.dataset.content_hash()

    def evaluate(
        self,
        candidate: Candidate,
        stage: str,
        cfg: EvalConfig | None = None,
        deadline: Deadline | None = None,
    ) -> Score:
        cfg_eff = cfg if cfg is not None else self.cfg
        auxiliary = cfg is not None and cfg.key() != self.cfg.key()
        key = candidate_key(candidate)
        cache_key = (key, self._dataset_hash, cfg_eff.key())
        with self._lock:
            if cache_key in self._cache:
                return self._cache[cache_key]
            scoring = self._scoring.setdefault(cache_key, threading.Lock())
        with scoring:  # a second caller of the key waits here for the first one's score
            with self._lock:
                if cache_key in self._cache:
                    return self._cache[cache_key]
            started = time.monotonic()
            score = mccv_score(
                candidate, self.dataset, cfg_eff, self.registry, deadline=deadline,
                folds=self._folds(cfg_eff), fold_listener=self.fold_listener,
            )
            record = JournalRecord(
                candidate_key=key,
                stage=stage,
                mean=score.mean,
                std=score.std,
                per_fold=score.per_fold,
                status=score.status,
                wall_ms=(time.monotonic() - started) * 1000.0,
                seed=cfg_eff.seed,
                auxiliary=auxiliary,
            )
            with self._lock:
                self._cache[cache_key] = score
                self._journal.append(record)
                self._by_key[key] = candidate
                del self._scoring[cache_key]
        return score

    def _folds(self, cfg: EvalConfig) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """The folds of ``cfg``, drawn on first use. None when the labels
        cannot be split; ``mccv_score`` then reports that for each
        candidate."""
        fold_key = (cfg.seed, cfg.repeats, cfg.train_fraction)
        with self._lock:
            if fold_key not in self._fold_cache:
                try:
                    self._fold_cache[fold_key] = mccv_splits(self.dataset, cfg)
                except ValueError:
                    self._fold_cache[fold_key] = None
            return self._fold_cache[fold_key]

    # -- journal and bookkeeping ---------------------------------------

    @property
    def evaluation_count(self) -> int:
        return len(self._journal)

    def journal_records(self) -> list[JournalRecord]:
        with self._lock:
            return list(self._journal)

    def candidate_for_key(self, key: str) -> Candidate | None:
        return self._by_key.get(key)

    def best_ok(self) -> tuple[str, float] | None:
        """Best (key, mean) over full-protocol ok evaluations; first seen
        wins ties."""
        best: tuple[str, float] | None = None
        for rec in self._journal:
            if rec.auxiliary or rec.status != STATUS_OK or rec.mean is None:
                continue
            if best is None or rec.mean < best[1]:
                best = (rec.candidate_key, rec.mean)
        return best
