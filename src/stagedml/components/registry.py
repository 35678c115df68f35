"""Registry of learners, meta-learners, scalers and feature filters.

The registry is the swap point for the component catalog: everything
downstream (evaluation, stages, CLI) addresses components by id only.
Several ids may share one implementation, so algorithm variants can be
registered as distinct entries without new code. It answers lookups,
parameter defaults, validation and sampling, and feature rankings;
fitting a pipeline from these specs is ``evaluation.fit_pipeline``.
Every learner's fit takes a stack of problems (see ``LearnerSpec``), so
evaluation has one fit path for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from stagedml.components import filters as _filters
from stagedml.components import learners as _learners
from stagedml.components import meta as _meta
from stagedml.components import scaling as _scaling
from stagedml.components.domains import (
    Categorical,
    IntRange,
    LogUniform,
    ParamSpace,
    sample_from_space,
    validate_params,
)
from stagedml.data import Dataset
from stagedml.rng import Rng


class UnknownComponentError(KeyError):
    pass


@dataclass(frozen=True)
class LearnerSpec:
    """One catalog entry.

    A base learner's ``fit(X, y, n_classes, params, seed, deadline)``
    returns a model with ``predict(rows, deadline)``; a meta-learner's
    ``fit(base, base_params, X, y, n_classes, params, seed, deadline)``
    receives the base learner's spec. Every fit takes a stack of
    equal-sized independent problems: ``X`` of shape (r, n, d), ``y`` of
    shape (r, n) and ``seed`` a sequence of r seeds, one per slice. The
    model maps (r, m, d) rows to (r, m) predictions and rejects rows of
    any other shape; slice i of both is exactly what fitting slice i as a
    stack of one with seed i gives. A fit written for one problem loops
    over the slices itself, as ``learners.fit_gaussian_nb`` does, and one
    problem is fitted as a stack of one (``evaluation.fit_pipeline``).
    Every fit and predict always receives a ``timing.Deadline``
    (``NO_DEADLINE`` when the caller sets none) and calls its ``check()``
    between coarse units of work, with no ``None`` test.
    """

    id: str
    default_params: Mapping
    param_space: ParamSpace
    is_meta: bool
    fit: Callable


@dataclass(frozen=True)
class ScalerSpec:
    id: str
    fit: Callable[[np.ndarray], object]


@dataclass(frozen=True)
class FilterSpec:
    id: str
    score: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class Registry:
    learners: dict[str, LearnerSpec] = field(default_factory=dict)
    scalers: dict[str, ScalerSpec] = field(default_factory=dict)
    filters: dict[str, FilterSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for spec in self.learners.values():
            validate_params(spec.param_space, spec.default_params)

    # -- lookups ------------------------------------------------------

    def learner(self, learner_id: str) -> LearnerSpec:
        try:
            return self.learners[learner_id]
        except KeyError:
            raise UnknownComponentError(f"unknown learner {learner_id!r}") from None

    def scaler(self, scaler_id: str) -> ScalerSpec:
        try:
            return self.scalers[scaler_id]
        except KeyError:
            raise UnknownComponentError(f"unknown scaler {scaler_id!r}") from None

    def filter(self, filter_id: str) -> FilterSpec:
        try:
            return self.filters[filter_id]
        except KeyError:
            raise UnknownComponentError(f"unknown filter {filter_id!r}") from None

    def base_learner_ids(self) -> list[str]:
        return [s.id for s in self.learners.values() if not s.is_meta]

    def meta_learner_ids(self) -> list[str]:
        return [s.id for s in self.learners.values() if s.is_meta]

    def scaler_ids(self) -> list[str]:
        return list(self.scalers)

    def filter_ids(self) -> list[str]:
        return list(self.filters)

    # -- operations ---------------------------------------------------

    def default_params(self, learner_id: str) -> dict:
        return dict(self.learner(learner_id).default_params)

    def effective_params(self, learner_id: str, params: Mapping | None) -> dict:
        merged = self.default_params(learner_id)
        if params:
            validate_params(self.learner(learner_id).param_space, params)
            merged.update(params)
        return merged

    def sample_params(self, learner_id: str, rng: Rng) -> dict:
        return sample_from_space(self.learner(learner_id).param_space, rng)

    def rank_features(self, filter_id: str, dataset: Dataset) -> list[int]:
        if dataset.n_columns < 1:
            raise ValueError("ranking requires at least one column")
        scores = self.filter(filter_id).score(dataset.instances, dataset.labels)
        return _filters.ranking_from_scores(scores)

    def to_json_dict(self) -> dict:
        return {
            "learners": [
                {
                    "id": s.id,
                    "is_meta": s.is_meta,
                    "default_params": dict(s.default_params),
                    "param_space": {k: dom.to_json() for k, dom in s.param_space.items()},
                }
                for s in self.learners.values()
            ],
            "scalers": [{"id": s.id} for s in self.scalers.values()],
            "filters": [{"id": s.id} for s in self.filters.values()],
        }


def registry_default() -> Registry:
    """The standard desk-scale catalog.

    Five base learners, two homogeneous meta-learners, three scalers and
    four filters. Parameter spaces are fixed documented grids/ranges.
    """
    learners = {
        "knn": LearnerSpec(
            id="knn",
            default_params={"k": 5},
            param_space={"k": Categorical([1, 3, 5, 7, 11, 15, 21])},
            is_meta=False,
            fit=_learners.fit_knn,
        ),
        "gaussian_nb": LearnerSpec(
            id="gaussian_nb",
            default_params={},
            param_space={},
            is_meta=False,
            fit=_learners.fit_gaussian_nb,
        ),
        "decision_tree": LearnerSpec(
            id="decision_tree",
            default_params={"max_depth": 0, "min_split": 2},  # 0 = unbounded depth
            param_space={
                "max_depth": Categorical([0, 1, 2, 4, 6, 8, 12, 16]),
                "min_split": IntRange(2, 16),
            },
            is_meta=False,
            fit=_learners.fit_decision_tree,
        ),
        "logistic_regression": LearnerSpec(
            id="logistic_regression",
            default_params={"learning_rate": 0.05, "epochs": 200, "l2": 1e-4},
            param_space={
                "learning_rate": LogUniform(1e-4, 1e-1),
                "epochs": IntRange(50, 400),
                "l2": LogUniform(1e-6, 1.0),
            },
            is_meta=False,
            fit=_learners.fit_logistic_regression,
        ),
        "random_forest": LearnerSpec(
            id="random_forest",
            default_params={"n_trees": 10, "max_depth": 0, "feature_subsample": 0.5},
            param_space={
                "n_trees": Categorical([5, 10, 25, 50]),
                "max_depth": Categorical([0, 4, 8, 16]),
                "feature_subsample": Categorical([0.25, 0.5, 0.75, 1.0]),
            },
            is_meta=False,
            fit=_learners.fit_random_forest,
        ),
        "bagging": LearnerSpec(
            id="bagging",
            default_params={"n_estimators": 10, "sample_fraction": 1.0, "replace": True},
            param_space={
                "n_estimators": Categorical([1, 5, 10, 25, 50]),
                "sample_fraction": Categorical([0.5, 0.7, 1.0]),
                "replace": Categorical([True, False]),
            },
            is_meta=True,
            fit=_meta.fit_bagging,
        ),
        "adaboost": LearnerSpec(
            id="adaboost",
            default_params={"n_estimators": 10, "learning_rate": 1.0},
            param_space={
                "n_estimators": Categorical([1, 5, 10, 25, 50]),
                "learning_rate": LogUniform(0.01, 2.0),
            },
            is_meta=True,
            fit=_meta.fit_adaboost,
        ),
    }
    scalers = {
        "standardize": ScalerSpec(id="standardize", fit=_scaling.fit_standardize),
        "minmax": ScalerSpec(id="minmax", fit=_scaling.fit_minmax),
        "quantile_rank": ScalerSpec(id="quantile_rank", fit=_scaling.fit_quantile_rank),
    }
    filter_specs = {
        "pearson_correlation": FilterSpec(id="pearson_correlation", score=_filters.pearson_scores),
        "mutual_information": FilterSpec(id="mutual_information", score=_filters.mutual_information_scores),
        "chi_squared": FilterSpec(id="chi_squared", score=_filters.chi_squared_scores),
        "variance": FilterSpec(id="variance", score=_filters.variance_scores),
    }
    return Registry(learners=learners, scalers=scalers, filters=filter_specs)
