"""Candidate pipelines and their Monte-Carlo cross-validation scores.

A candidate is the tuple (scaler, feature set, learner, params), with an
optional homogeneous meta-learner wrapped around the learner. Blank
slots are real absent values (``None``), never sentinel strings.
``fit_pipeline`` is the one place where a candidate becomes a fitted
model: it checks the candidate against the registry, fits the scaler on
the training matrix, takes the feature columns as an array slice and
calls the learner's (or meta-learner's) fit on ``(X, y, n_classes)``.

Scoring runs ``repeats`` stratified splits of the optimization data.
The split seeds derive from (seed, repeat index) only, so every
candidate in a run is scored on the *same* folds (paired comparisons);
fit seeds additionally mix in the candidate key, so stochastic learners
stay decorrelated without depending on evaluation order. An
``Evaluator`` builds the fold datasets once per (seed, repeats,
train_fraction) and shares them, read-only, across all its candidates.
Scores are cached by (candidate key, dataset hash, config); lower is
better.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from stagedml.components.registry import LearnerSpec, Registry, ScalerSpec
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


def _resolve_candidate(
    candidate: Candidate, registry: Registry
) -> tuple[ScalerSpec | None, LearnerSpec, dict, LearnerSpec | None, dict | None]:
    """The candidate's scaler and learner specs with merged params.

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
    return scaler, base, params, meta, meta_params


def _prepare(
    candidate: Candidate, scaler_spec: ScalerSpec | None, train: Dataset
) -> tuple[FittedPipeline, np.ndarray]:
    """The candidate's pipeline on ``train`` with its scaler fitted but no
    model yet, and the training matrix of that model: ``train`` scaled,
    then restricted to the candidate's features.

    Raises ``ValueError`` for empty training data, scaled training data
    that are not finite or a feature index out of range.
    """
    if train.n_rows == 0:
        raise ValueError("cannot fit on an empty dataset")
    X = train.instances
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
    return FittedPipeline(scaler=scaler, features=candidate.features, model=None, n_columns=train.n_columns), X


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
    scaler_spec, base, params, meta, meta_params = _resolve_candidate(candidate, registry)
    pipeline, X = _prepare(candidate, scaler_spec, train)
    n_classes = len(train.class_names)
    if meta is None:
        pipeline.model = base.fit(X, train.labels, n_classes, params, seed=seed, deadline=deadline)
    else:
        pipeline.model = meta.fit(base, params, X, train.labels, n_classes, meta_params, seed=seed, deadline=deadline)
    return pipeline


# ---------------------------------------------------------------------------
# MCCV scoring


def mccv_splits(dataset: Dataset, cfg: EvalConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """The stratified (train, validation) row partitions of one run.

    Split seeds mix (cfg.seed, repeat index) only, so all candidates
    evaluated under one config share folds pairwise.
    """
    out = []
    for r in range(cfg.repeats):
        spec = SplitSpec(train_fraction=cfg.train_fraction, seed=derive_seed(cfg.seed, "mccv", r))
        out.append(split_indices(dataset.labels, spec, stratified=True))
    return out


def _fold_pairs(dataset: Dataset, cfg: EvalConfig) -> list[tuple[Dataset, Dataset]]:
    return [(dataset.subset_rows(tr), dataset.subset_rows(va)) for tr, va in mccv_splits(dataset, cfg)]


def mccv_score(
    candidate: Candidate,
    dataset: Dataset,
    cfg: EvalConfig,
    registry: Registry,
    deadline: Deadline | None = None,
    folds: Sequence[tuple[Dataset, Dataset]] | None = None,
    fold_listener: Callable | None = None,
) -> Score:
    """Average validation error over `repeats` stratified splits.

    ``folds`` are the (train, validation) datasets of ``mccv_splits``
    when the caller already holds them; by default they are built here.
    ``fold_listener(key, r, train, val)``, if given, sees every fold
    before it is fitted; an invalid candidate is rejected before the
    first fold. Fold r is fitted with seed ``derive_seed(cfg.seed, "fit",
    key, r)``. Each fold is fitted by ``fit_pipeline``, except for a
    candidate whose learner stacks (and whose meta-learner, if any,
    stacks too) and whose folds all have equal train sizes and equal
    validation sizes (as ``mccv_splits`` makes them): its folds are
    scaled one by one as ``fit_pipeline`` would, then fitted in one
    stacked call with the r fold seeds and predicted in one stacked call
    of the model, with the same scores.

    Failures are statuses, not exceptions: a lapsed deadline yields
    ``failed_timeout`` (partial folds discarded), an invalid candidate,
    a learner error or labels that cannot be split yield
    ``failed_error``. Single-class
    data scores 0 trivially.
    """
    if len(np.unique(dataset.labels)) < 2:
        return Score(mean=0.0, std=0.0, per_fold=(0.0,) * cfg.repeats, status=STATUS_OK)
    key = candidate_key(candidate)
    effective = Deadline.earliest(deadline, Deadline(cfg.per_eval_timeout))
    try:
        scaler_spec, base, params, meta, meta_params = _resolve_candidate(candidate, registry)  # reject before any fold
        if folds is None:
            folds = _fold_pairs(dataset, cfg)
        stacked = base.stacks and (meta is None or meta.stacks) and len({(t.n_rows, v.n_rows) for t, v in folds}) == 1
        seeds = [derive_seed(cfg.seed, "fit", key, r) for r in range(len(folds))]
        per_fold, train_X, val_X = [], [], []
        for r, (train, val) in enumerate(folds):
            effective.check()
            if fold_listener is not None:
                fold_listener(key, r, train, val)
            if stacked:
                pipeline, X = _prepare(candidate, scaler_spec, train)
                train_X.append(X)
                val_X.append(pipeline.transform(val.instances))
            else:
                fitted = fit_pipeline(candidate, train, registry, seed=seeds[r], deadline=effective)
                preds = fitted.predict(val.instances, deadline=effective)
                per_fold.append(error_rate(val.labels, preds))
        if stacked:
            X, y = np.stack(train_X), np.stack([train.labels for train, _ in folds])
            n_classes = len(folds[0][0].class_names)
            if meta is None:
                model = base.fit(X, y, n_classes, params, seed=seeds, deadline=effective)
            else:
                model = meta.fit(base, params, X, y, n_classes, meta_params, seed=seeds, deadline=effective)
            preds = model.predict(np.stack(val_X), deadline=effective)
            per_fold = [error_rate(val.labels, p) for (_, val), p in zip(folds, preds)]
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

    The fold datasets of each (seed, repeats, train_fraction) are built
    once, on first use, and reused for every later candidate; their
    arrays are write-protected and ``dataset`` never changes, so sharing
    them cannot leak state between candidates.

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
            score = self._score(candidate, cfg_eff, deadline)
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

    def _score(self, candidate: Candidate, cfg: EvalConfig, deadline: Deadline | None) -> Score:
        return mccv_score(
            candidate,
            self.dataset,
            cfg,
            self.registry,
            deadline=deadline,
            folds=self._folds(cfg),
            fold_listener=self.fold_listener,
        )

    def _folds(self, cfg: EvalConfig) -> list[tuple[Dataset, Dataset]] | None:
        """The fold datasets of ``cfg``, built on first use. None when the
        labels cannot be split; ``mccv_score`` then reports that for each
        candidate."""
        fold_key = (cfg.seed, cfg.repeats, cfg.train_fraction)
        with self._lock:
            if fold_key not in self._fold_cache:
                try:
                    self._fold_cache[fold_key] = _fold_pairs(self.dataset, cfg)
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
