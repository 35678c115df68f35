"""Candidate pipelines and their Monte-Carlo cross-validation scores.

A candidate is the tuple (scaler, feature set, learner, params), with an
optional homogeneous meta-learner wrapped around the learner. Blank
slots are real absent values (``None``), never sentinel strings.
A candidate becomes a fitted model in one way: it is checked against the
registry, the scaler is fitted on the training matrix, the feature
columns are taken as an array slice and the learner's (or
meta-learner's) fit runs on a stack of training matrices. ``fit_pipeline``
does that for one training set, a stack of one; ``mccv_score`` scales
every fold the same way and fits all folds as one stack. ``holdout_error``
is the one held-out score: ``fit_pipeline`` on a training set, then the
error rate on a test set (the validation stage's holdout and a bench
cell's outer test split).

Scoring runs ``repeats`` stratified splits of the optimization data.
The split seeds derive from (seed, repeat index) only, so every
candidate in a run is scored on the *same* folds (paired comparisons);
fit seeds additionally mix in the candidate key, so stochastic learners
stay decorrelated without depending on evaluation order. A fold is a
pair of row-index arrays over the one optimization matrix; an
``Evaluator`` draws the folds once per (seed, repeats, train_fraction)
and shares them across all its candidates. Scores are cached by
(candidate key, config); lower is better.

``Evaluator.evaluate_many`` scores a batch of at least ``POOL_CELLS``
training cells on ``WORKERS`` forked processes and journals it as
``evaluate`` called once per candidate, in submission order, would.
Candidates of a batch that differ only in scaler and features (of one
width) go to a worker together and are fitted as one stack across
candidates and folds (``mccv_score_group``).
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import weakref
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from stagedml.components.learners import STACK_CELLS
from stagedml.components.registry import Registry, ScalerSpec
from stagedml.data import Dataset, FeatureSet, SplitSpec, split_indices
from stagedml.data import project  # noqa: F401  (kept importable from this module)
from stagedml.rng import derive_seed
from stagedml.timing import NO_DEADLINE, Budget, Deadline, DeadlineExceeded

STATUS_OK = "ok"
STATUS_TIMEOUT = "failed_timeout"
STATUS_ERROR = "failed_error"

# processes ``Evaluator.evaluate_many`` scores a batch on: the CPUs this process may use
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# training cells of the keys left to score from which a batch pays for starting workers
POOL_CELLS = 1 << 14


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
    """A scaler, feature columns and the model of a stack of one: maps
    (m, n_columns) rows to (m,) labels."""

    scaler: object | None
    features: FeatureSet | None
    model: object
    n_columns: int

    def predict(self, rows: np.ndarray, deadline: Deadline = NO_DEADLINE) -> np.ndarray:
        return self.model.predict(self.transform(rows)[None], deadline=deadline)[0]

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
    deadline: Deadline = NO_DEADLINE,
) -> FittedPipeline:
    """Fit scaler -> feature columns -> (meta-wrapped) learner on ``train``.

    The scaler is fitted on all columns, then the feature columns are
    taken from its output, and the learner fits them as a stack of one
    with ``[seed]``. Besides the candidate errors of
    ``_resolve_candidate``, raises ``ValueError`` for empty training data,
    a feature index out of range or scaled training data that are not
    finite.
    """
    scaler_spec, fit = _resolve_candidate(candidate, registry)
    pipeline, X = _prepare(candidate, scaler_spec, train.instances)
    pipeline.model = fit(X[None], train.labels[None], len(train.class_names), [seed], deadline)
    return pipeline


def holdout_error(
    candidate: Candidate,
    train: Dataset,
    test: Dataset,
    registry: Registry,
    seed: int,
    deadline: Deadline = NO_DEADLINE,
) -> float:
    """The error rate on ``test`` of ``candidate`` fitted on ``train`` by
    ``fit_pipeline`` with ``seed``; ``deadline`` bounds the fit and the
    predict. Raises what they raise."""
    fitted = fit_pipeline(candidate, train, registry, seed=seed, deadline=deadline)
    return error_rate(test.labels, fitted.predict(test.instances, deadline=deadline))


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
        out.append(split_indices(dataset.labels, spec))
    return out


def stack_signature(candidate: Candidate, n_columns: int) -> tuple[str, int]:
    """What candidates must share to be scored as one stack: the key
    with scaler and features blanked (learner, params, meta-learner and
    meta params), and the width of the model's input."""
    width = len(candidate.features) if candidate.features is not None else n_columns
    return candidate_key(replace(candidate, scaler=None, features=None)), width


def mccv_score(
    candidate: Candidate,
    dataset: Dataset,
    cfg: EvalConfig,
    registry: Registry,
    deadline: Deadline = NO_DEADLINE,
    folds: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
) -> Score:
    """Average validation error over `repeats` stratified splits: the
    one-candidate case of ``mccv_score_group``.

    ``folds`` are the (train, validation) row indices of ``mccv_splits``
    when the caller already holds them; by default they are drawn here.
    An invalid candidate is rejected before the first fold. Each fold is
    scaled and restricted to the candidate's features as ``fit_pipeline``
    would do it, then all folds are fitted in one stacked call, fold r
    with seed ``derive_seed(cfg.seed, "fit", key, r)``, and predicted in
    one stacked call of the model.

    Failures are statuses, not exceptions: a lapsed deadline yields
    ``failed_timeout`` (partial folds discarded), an invalid candidate
    or a learner error yield ``failed_error``. A valid candidate scores
    0 trivially on data of fewer than two classes.
    """
    return mccv_score_group([candidate], dataset, cfg, registry, [deadline], folds)[0]


def mccv_score_group(
    candidates: Sequence[Candidate],
    dataset: Dataset,
    cfg: EvalConfig,
    registry: Registry,
    deadlines: Sequence[Deadline] | None = None,
    folds: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[Score]:
    """The ``mccv_score`` of each of ``candidates``, which share one
    ``stack_signature``, candidate i under ``deadlines[i]`` (``NO_DEADLINE`` by default).

    Every candidate's folds are scaled and projected on their own, then
    the folds of all of them are fitted as one (candidates x folds) stack
    and predicted in one call: by the stack contract of the learners,
    each slice comes out as fitting it as a stack of one would. A
    candidate that is invalid, or whose scaled training data are not
    finite, fails alone and leaves the stack. The stacked attempt runs
    under the earliest of the candidates' deadlines and one
    ``per_eval_timeout``; if it raises or that deadline lapses, every
    candidate left is scored alone under its own deadline, so each status
    is the one scoring it alone gives.
    """
    n = len(candidates)
    deadlines = list(deadlines) if deadlines is not None else [NO_DEADLINE] * n
    one_class = len(np.unique(dataset.labels)) < 2
    stack = Deadline.earliest(*deadlines, Deadline(cfg.per_eval_timeout))
    scores: list[Score | None] = [None] * n
    X, y = dataset.instances, dataset.labels
    stacked, train_X, val_X, seeds = [], [], [], []  # candidates in the stack, and its slices
    try:
        for i, candidate in enumerate(candidates):
            key = candidate_key(candidate)
            try:
                scaler_spec, fit = _resolve_candidate(candidate, registry)  # reject before any fold
                if one_class:  # a valid candidate scores 0 trivially
                    scores[i] = Score(mean=0.0, std=0.0, per_fold=(0.0,) * cfg.repeats, status=STATUS_OK)
                    continue
                if folds is None:
                    folds = mccv_splits(dataset, cfg)
                own_train, own_val = [], []
                for train, val in folds:
                    stack.check()
                    pipeline, model_X = _prepare(candidate, scaler_spec, X[train])
                    own_train.append(model_X)
                    own_val.append(pipeline.transform(X[val]))
            except DeadlineExceeded:
                raise
            except Exception:
                scores[i] = Score(mean=None, std=None, per_fold=(), status=STATUS_ERROR)
                continue
            stacked.append(i)
            fit_stack = fit
            train_X += own_train
            val_X += own_val
            seeds += [derive_seed(cfg.seed, "fit", key, r) for r in range(len(folds))]
        if stacked:
            train_y = y[np.stack([train for train, _ in folds] * len(stacked))]
            model = fit_stack(np.stack(train_X), train_y, len(dataset.class_names), seeds, stack)
            preds = model.predict(np.stack(val_X), deadline=stack)
            per_fold = [error_rate(y[val], p) for (_, val), p in zip(folds * len(stacked), preds)]
            for j, i in enumerate(stacked):
                scores[i] = _fold_score(per_fold[j * len(folds) : (j + 1) * len(folds)])
    except Exception as exc:
        if n > 1:  # score each candidate left alone, under its own deadline
            return [
                score if score is not None else mccv_score(c, dataset, cfg, registry, d, folds)
                for c, d, score in zip(candidates, deadlines, scores)
            ]
        status = STATUS_TIMEOUT if isinstance(exc, DeadlineExceeded) else STATUS_ERROR
        return [Score(mean=None, std=None, per_fold=(), status=status)]
    return scores


def _fold_score(per_fold: Sequence[float]) -> Score:
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
        """The fields in order, as JSON values."""
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"per_fold": list(self.per_fold)}


def _dispatches(
    candidates: Sequence[Candidate], deadline, budgets: Sequence[Budget] | None, groups=None, ready=None
):
    """Each group of ``candidates`` to dispatch, as its (index, candidate,
    deadline) list; ``groups`` are lists of indices (by default each
    candidate alone, in submission order). A group is checked just before
    it is dispatched (after ``ready()``, the caller's wait for a free
    worker): nothing once ``deadline`` has lapsed, and no candidate whose
    own budget (``budgets[i]``, started here) has lapsed."""
    for group in groups if groups is not None else ([i] for i in range(len(candidates))):
        if ready is not None:
            ready()
        if deadline.expired():
            return
        members = []
        for i in group:
            own = budgets[i].start() if budgets is not None else deadline
            if not own.expired():
                members.append((i, candidates[i], own))
        yield members


def evaluate_serially(
    evaluator, candidates: Sequence[Candidate], stage: str, deadline=NO_DEADLINE, budgets: Sequence[Budget] | None = None
) -> list[Score | None]:
    """``evaluate_many`` as a loop over ``evaluator.evaluate`` in this
    process."""
    scores: list[Score | None] = [None] * len(candidates)
    for group in _dispatches(candidates, deadline, budgets):
        for i, candidate, own in group:
            scores[i] = evaluator.evaluate(candidate, stage, deadline=own)
    return scores


@dataclass
class Evaluator:
    """Scores candidates on one optimization dataset, with caching.

    The folds of each (seed, repeats, train_fraction), row-index pairs
    into ``dataset``, are drawn once, on first use, and shared by every
    later candidate; ``dataset`` is write-protected and never changes, so
    sharing them cannot leak state between candidates.

    It serves one caller at a time: the cache, fold cache and journal
    hold no locks. Seeds derive from candidate keys, never from arrival
    order, and a key is scored and journaled once.

    ``evaluate_many`` forks its worker processes on the first batch that
    needs them; ``close`` stops them (``orchestrator.run`` does when it
    returns or raises), and so does dropping the evaluator.
    """

    registry: Registry
    dataset: Dataset
    cfg: EvalConfig
    _cache: dict = field(default_factory=dict)
    _journal: list = field(default_factory=list)
    _by_key: dict = field(default_factory=dict)
    _fold_cache: dict = field(default_factory=dict)
    _workers: "_Workers | None" = None
    _stop_workers: weakref.finalize | None = None

    def _cache_key(self, candidate: Candidate, cfg: EvalConfig) -> tuple[str, str]:
        # ``dataset`` never changes (its arrays are write-protected), so the key need not name it
        return candidate_key(candidate), cfg.key()

    def evaluate(
        self,
        candidate: Candidate,
        stage: str,
        cfg: EvalConfig | None = None,
        deadline: Deadline = NO_DEADLINE,
    ) -> Score:
        """The score of ``candidate``, cached or scored here. A ``cfg``
        other than the evaluator's own is journaled as auxiliary."""
        cfg = cfg if cfg is not None else self.cfg
        cache_key = self._cache_key(candidate, cfg)
        if cache_key in self._cache:
            return self._cache[cache_key]
        started = time.monotonic()
        score = mccv_score(
            candidate, self.dataset, cfg, self.registry, deadline=deadline,
            folds=self._folds(cfg),
        )
        self._record(cache_key, candidate, stage, score, (time.monotonic() - started) * 1000.0, cfg)
        return score

    def evaluate_many(
        self,
        candidates: Sequence[Candidate],
        stage: str,
        deadline: Deadline = NO_DEADLINE,
        budgets: Sequence[Budget] | None = None,
    ) -> list[Score | None]:
        """The scores of ``candidates`` under the evaluator's config, as
        ``evaluate`` called on each in turn would give them; None for a
        candidate left unscored because ``deadline``, or its own budget
        ``budgets[i]`` (started when it is dispatched), lapsed first.

        Cached and repeated keys are not scored again. The others go to
        ``WORKERS`` worker processes in groups of one ``stack_signature``
        (``_stack_groups``), each group one task scored as one stack by
        ``mccv_score_group``, one task in flight per worker. ``deadline``
        is checked before each group's dispatch, and each member's budget
        starts there; once ``deadline`` lapses, nothing more is dispatched
        and the tasks in flight are waited for. Cache entries and journal
        records are written in submission order, so the journal does not
        depend on the worker count; a group's wall time is split evenly
        among its members. The batch runs in this process, one candidate
        at a time, as ``evaluate_serially``, when fewer than two keys are
        left to score, when their training cells (repeats x training rows
        x input width, summed) fall short of ``POOL_CELLS``, when one CPU
        is usable, when the data hold fewer than two classes (every
        candidate then scores trivially), when the context cannot go to
        workers by value (a registry that does not pickle), or when
        workers would be forked from a process that runs other threads.
        Starting workers costs 11-15 ms on a 2-vCPU VM, more than a second
        CPU saves on the 500-5,000 cells of a probing, scaling or
        filtering batch of 40 rows; meta and tuning batches of such rows
        hold 30,000 or more, and every batch of 1,500 rows and 6 columns
        105,000 or more.
        """
        keys = [self._cache_key(c, self.cfg) for c in candidates]
        left = {key: c for key, c in zip(keys, candidates) if key not in self._cache}  # keys to score
        workers = self._workers_for(left)
        if workers is None:
            return evaluate_serially(self, candidates, stage, deadline, budgets)
        return self._evaluate_on(workers, candidates, keys, left, stage, deadline, budgets)

    def _evaluate_on(self, workers: "_Workers", candidates, keys, left, stage, deadline, budgets) -> list[Score | None]:
        """``evaluate_many`` on ``workers``, with its cache ``keys`` and keys ``left`` to score."""
        dispatched = []  # indices of the members dispatched, scored or not
        firsts: dict = {}  # cache key -> index of the member that scores it
        results: dict = {}
        groups = self._stack_groups(candidates, keys, left)
        for group in _dispatches(candidates, deadline, budgets, groups, lambda: workers.ready(results)):
            task = []
            for i, candidate, own in group:
                dispatched.append(i)
                if keys[i] in left and keys[i] not in firsts:
                    firsts[keys[i]] = i
                    task.append((i, candidate, own))
            if task:
                workers.submit(task)
        workers.drain(results)
        for cache_key, i in sorted(firsts.items(), key=lambda item: item[1]):  # submission order
            self._record(cache_key, candidates[i], stage, *results[i], self.cfg)
        scores: list[Score | None] = [None] * len(candidates)
        for i in dispatched:  # cached, repeated and just-scored keys alike
            scores[i] = self._cache[keys[i]]
        return scores

    def _stack_groups(self, candidates: Sequence[Candidate], keys: list, left) -> list[list[int]]:
        """The indices of ``candidates`` (of cache keys ``keys``) in
        dispatch groups, ordered by their first index. A group holds
        candidates of one ``stack_signature``: at most ceil(keys
        ``left`` to score / ``WORKERS``) keys to score, so every worker
        gets work, whose stacked training cells stay within
        ``STACK_CELLS`` (one key alone may exceed it). Cached and repeated
        keys go with a group of their signature and take no room in it."""
        cells_per_column = self._cells_per_column()
        cap = -(-len(left) // WORKERS)
        pending = set(left)  # keys to score not yet placed
        groups, open_groups = [], {}  # signature -> [indices, keys to score, cells]
        for i, (candidate, key) in enumerate(zip(candidates, keys)):
            signature = stack_signature(candidate, self.dataset.n_columns)
            scores, cells = key in pending, cells_per_column * signature[1]
            pending.discard(key)
            group = open_groups.get(signature)
            if group is None or (scores and group[1] and (group[1] >= cap or group[2] + cells > STACK_CELLS)):
                group = open_groups[signature] = [[], 0, 0]
                groups.append(group[0])
            group[0].append(i)
            if scores:
                group[1] += 1
                group[2] += cells
        return groups

    def _record(self, cache_key, candidate: Candidate, stage: str, score: Score, wall_ms: float, cfg: EvalConfig) -> None:
        """Cache and journal one scoring."""
        record = JournalRecord(
            candidate_key=cache_key[0],
            stage=stage,
            mean=score.mean,
            std=score.std,
            per_fold=score.per_fold,
            status=score.status,
            wall_ms=wall_ms,
            seed=cfg.seed,
            auxiliary=cfg.key() != self.cfg.key(),
        )
        self._cache[cache_key] = score
        self._journal.append(record)
        self._by_key[cache_key[0]] = candidate

    def _cells_per_column(self) -> int:
        """Training cells of one key per column of its input: repeats x training rows."""
        folds = self._folds(self.cfg)
        return self.cfg.repeats * len(folds[0][0]) if folds else 0

    def _workers_for(self, left: dict) -> "_Workers | None":
        """The worker processes for a batch whose keys left to score map
        to their candidates in ``left``, forked on the first batch that
        needs them, after the fold cache is built; None when the batch
        runs in this process."""
        if WORKERS < 2:
            return None
        widths = (stack_signature(c, self.dataset.n_columns)[1] for c in left.values())
        if len(left) < 2 or self._cells_per_column() * sum(widths) < POOL_CELLS:
            return None
        if self._workers is None:
            if threading.active_count() > 1 or len(np.unique(self.dataset.labels)) < 2:
                return None  # a fork beside other threads can deadlock the child; one class scores 0 anyway
            try:
                context = pickle.dumps((self.dataset, self.registry, self.cfg, self._folds(self.cfg)))
            except (pickle.PicklingError, AttributeError, TypeError):  # local functions, locks
                return None
            self._workers = _Workers(WORKERS, context)
            self._stop_workers = weakref.finalize(self, self._workers.close)
        return self._workers

    def close(self) -> None:
        """Stop the worker processes, if any; a later batch forks new ones."""
        if self._stop_workers is not None:
            self._stop_workers()
        self._workers = self._stop_workers = None

    def _folds(self, cfg: EvalConfig) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """The folds of ``cfg``, drawn on first use; None for an empty
        dataset, the only one that cannot be split."""
        fold_key = (cfg.seed, cfg.repeats, cfg.train_fraction)
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


# ---------------------------------------------------------------------------
# worker processes


class _Workers:
    """Forked processes that score candidates against one evaluator context.

    The context (dataset, registry, config and folds), pickled by the
    parent, reaches each worker once, by value. A task is a group of
    candidates, each with its absolute deadline (the monotonic clock is
    system-wide), scored by ``mccv_score_group``; each worker holds one
    task at a time. A worker that dies in a task is replaced: the
    candidate of a task of one ends ``failed_error``, and the members of
    a larger task are sent again one by one, so that only the one that
    kills a worker fails.
    """

    def __init__(self, n: int, context: bytes) -> None:
        import multiprocessing  # here, so that runs which never batch do not import it

        self._mp = multiprocessing.get_context("fork")
        self._context = context
        self._procs: dict = {}  # parent end of a worker's pipe -> the worker
        self._busy: dict = {}  # parent end -> the task in flight
        self._resend: list = []  # tasks to send again, one member each
        self._idle = [self._fork() for _ in range(n)]

    def _fork(self):
        ours, theirs = self._mp.Pipe()
        proc = self._mp.Process(target=_serve, args=(theirs, self._context), daemon=True)
        proc.start()
        theirs.close()
        self._procs[ours] = proc
        return ours

    def ready(self, results: dict) -> None:
        """Wait until some worker is idle and no task waits to be sent again."""
        self._wait(results, lambda: self._idle and not self._resend)

    def submit(self, task: list) -> None:
        """Send ``task``, a list of (index, candidate, deadline) to score as
        one group, to an idle worker (``ready`` waits for one)."""
        conn = self._idle.pop()
        conn.send([(candidate, deadline) for _, candidate, deadline in task])
        self._busy[conn] = task

    def drain(self, results: dict) -> None:
        """Wait for every task in flight or waiting to be sent again."""
        self._wait(results, lambda: not self._busy and not self._resend)

    def _wait(self, results: dict, done) -> None:
        while not done():
            if self._resend and self._idle:
                self.submit(self._resend.pop(0))
            else:
                self._collect(results)

    def _collect(self, results: dict) -> None:
        """Wait for at least one task to end; ``results[index]`` becomes
        the (score, wall_ms) of each of its members."""
        from multiprocessing.connection import wait

        for conn in wait(list(self._busy)):
            task = self._busy.pop(conn)
            try:
                outcomes = conn.recv()
            except (EOFError, OSError):  # the worker died in this task
                conn.close()
                self._procs.pop(conn).join()
                conn = self._fork()
                if len(task) > 1:
                    self._resend += [[member] for member in task]
                    outcomes = []
                else:
                    outcomes = [(Score(mean=None, std=None, per_fold=(), status=STATUS_ERROR), 0.0)]
            for (index, _, _), outcome in zip(task, outcomes):
                results[index] = outcome
            self._idle.append(conn)

    def close(self) -> None:
        """Terminate every worker and wait for it to exit."""
        for conn, proc in self._procs.items():
            proc.terminate()
            conn.close()
        for proc in self._procs.values():
            proc.join()
        self._procs.clear()


def _serve(conn, context: bytes) -> None:
    """A worker's loop: score each group of (candidate, deadline) that
    arrives on ``conn``, until the parent closes it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    dataset, registry, cfg, folds = pickle.loads(context)
    while True:
        try:
            members = conn.recv()
        except EOFError:
            return
        started = time.monotonic()
        scores = mccv_score_group([c for c, _ in members], dataset, cfg, registry, [d for _, d in members], folds)
        wall_ms = (time.monotonic() - started) * 1000.0 / len(members)
        conn.send([(score, wall_ms) for score in scores])
