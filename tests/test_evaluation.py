import multiprocessing
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stagedml import evaluation
from stagedml.components.learners import fit_gaussian_nb
from stagedml.components.registry import LearnerSpec, UnknownComponentError
from stagedml.data import Dataset, FeatureSet
from stagedml.evaluation import (
    STATUS_ERROR,
    Candidate,
    EvalConfig,
    Evaluator,
    candidate_key,
    candidate_to_dict,
    error_rate,
    fit_pipeline,
    holdout_error,
    mccv_score,
    mccv_splits,
)
from stagedml.rng import derive_seed
from stagedml.stages import CHEAP_REPEATS
from stagedml.synth import make_dataset
from stagedml.timing import Deadline, DeadlineExceeded

from conftest import exiting_registry, make_numeric_dataset, random_dataset, spy_registry


SLOW_STACK_TIMEOUT = 0.25


def _slow_stack_fit(X, y, n_classes, params, seed=0, deadline=None):
    """Gaussian NB; a stack of more than five slices sleeps past
    SLOW_STACK_TIMEOUT first."""
    if np.ndim(X) == 3 and len(X) > 5:
        time.sleep(2 * SLOW_STACK_TIMEOUT)
        deadline.check()
    return fit_gaussian_nb(X, y, n_classes, params, seed=seed, deadline=deadline)


def _huge_first_column():
    """20 rows whose first column (1e308 to 1.5e308) overflows a column mean."""
    x = np.column_stack([np.linspace(1e308, 1.5e308, 20), np.arange(20.0)])
    return make_numeric_dataset(x, [0, 1] * 10)


def _alternating_huge_first_column():
    """20 rows whose first column alternates between +-(0.5 to 1)e308, so
    its range (the span of ``minmax``) overflows."""
    x = np.column_stack([np.linspace(0.5e308, 1e308, 20) * np.tile([1.0, -1.0], 10), np.arange(20.0)])
    return make_numeric_dataset(x, [0, 1] * 10)


def _lopsided_huge_first_column():
    """21 rows whose first column repeats 1.5e308, 1.5e308, -1.5e308: the
    -1.5e308 rows lie more than the float64 range below the column mean,
    so ``standardize`` maps them to -inf."""
    x = np.column_stack([np.tile([1.5e308, 1.5e308, -1.5e308], 7), np.arange(21.0)])
    return make_numeric_dataset(x, [0, 1, 0] * 7)


class TestCandidateKey:
    def test_blank_candidate(self):
        assert candidate_key(Candidate(learner="knn")) == "-|-|knn|default"

    def test_empty_params_are_the_defaults(self):
        # an empty mapping merges no params, so it is the default model and keys as one
        assert candidate_key(Candidate("knn", params={})) == "-|-|knn|default"
        assert candidate_key(Candidate("knn", meta="bagging", meta_params={})) == "-|-|bagging{default}(knn)|default"

    def test_full_candidate(self):
        c = Candidate(
            learner="knn",
            params={"k": 3},
            scaler="standardize",
            features=FeatureSet([2, 0]),
            meta="bagging",
            meta_params={"n_estimators": 5},
        )
        assert candidate_key(c) == "standardize|0,2|bagging{n_estimators=5}(knn)|k=3"

    def test_feature_order_irrelevant(self):
        a = Candidate(learner="knn", features=FeatureSet([3, 1]))
        b = Candidate(learner="knn", features=FeatureSet([1, 3]))
        assert candidate_key(a) == candidate_key(b)

    def test_param_difference_changes_key(self):
        a = Candidate(learner="knn", params={"k": 3})
        b = Candidate(learner="knn", params={"k": 5})
        assert candidate_key(a) != candidate_key(b)

    def test_param_name_order_irrelevant(self):
        a = Candidate(learner="decision_tree", params={"max_depth": 4, "min_split": 2})
        b = Candidate(learner="decision_tree", params={"min_split": 2, "max_depth": 4})
        assert candidate_key(a) == candidate_key(b)

    def test_dict_roundtrip(self):
        c = Candidate(
            learner="decision_tree",
            params={"max_depth": 4, "min_split": 2},
            scaler="minmax",
            features=FeatureSet([1, 4]),
            meta="adaboost",
            meta_params=None,
        )
        assert candidate_to_dict(c) == {
            "scaler": "minmax",
            "features": [1, 4],
            "learner": "decision_tree",
            "params": {"max_depth": 4, "min_split": 2},
            "meta": "adaboost",
            "meta_params": None,
        }


class TestErrorRate:
    def test_identical(self):
        assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_disjoint(self):
        assert error_rate([1, 1, 1], [0, 0, 0]) == 1.0

    def test_one_of_four(self):
        assert error_rate([0, 1, 0, 1], [0, 1, 0, 0]) == 0.25

    def test_errors(self):
        with pytest.raises(ValueError):
            error_rate([], [])
        with pytest.raises(ValueError):
            error_rate([1, 2], [1])


class TestMaterialize:
    TRAIN = make_dataset("separable", 40, 3, 0)

    def test_blank_slots_are_identity(self, registry):
        d = make_dataset("separable", 40, 3, 0)
        fitted = fit_pipeline(Candidate(learner="knn"), d, registry, seed=1)
        assert fitted.scaler is None and fitted.features is None
        assert fitted.predict(d.instances).shape == (40,)

    def test_scaler_statistics_from_training_data_only(self, registry):
        train = make_numeric_dataset([[0.0], [10.0]], [0, 1])
        c = Candidate(learner="gaussian_nb", scaler="standardize")
        fitted = fit_pipeline(c, train, registry, seed=0)
        assert fitted.scaler.center[0] == pytest.approx(5.0)
        assert fitted.scaler.scale[0] == pytest.approx(5.0)

    def test_meta_of_meta_rejected(self, registry):
        with pytest.raises(ValueError):
            fit_pipeline(Candidate(learner="adaboost", meta="bagging"), self.TRAIN, registry)

    def test_non_meta_in_meta_slot_rejected(self, registry):
        with pytest.raises(ValueError):
            fit_pipeline(Candidate(learner="decision_tree", meta="knn"), self.TRAIN, registry)

    def test_bare_meta_rejected(self, registry):
        with pytest.raises(ValueError):
            fit_pipeline(Candidate(learner="bagging"), self.TRAIN, registry)

    def test_unknown_ids_rejected(self, registry):
        for c in (
            Candidate(learner="svm"),
            Candidate(learner="knn", scaler="robust"),
            Candidate(learner="knn", meta="boosting"),
        ):
            with pytest.raises(UnknownComponentError):
                fit_pipeline(c, self.TRAIN, registry)

    def test_bad_training_data_rejected(self, registry):
        empty = self.TRAIN.subset_rows([])
        huge = _lopsided_huge_first_column()
        for c, train in (
            (Candidate(learner="knn"), empty),
            (Candidate(learner="knn", meta="bagging"), empty),
            (Candidate(learner="knn", features=FeatureSet([3])), self.TRAIN),
            (Candidate(learner="knn", scaler="standardize"), huge),  # scales some rows to -inf
        ):
            with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
                fit_pipeline(c, train, registry)

    def test_fit_order_scale_then_project(self, registry):
        # scaler sees all columns; projection happens afterwards, so
        # column 1 statistics influence nothing after projection to {0}
        train = make_numeric_dataset([[1.0, 100.0], [3.0, -50.0], [5.0, 0.0], [7.0, 1.0]], [0, 0, 1, 1])
        c = Candidate(learner="knn", scaler="standardize", features=FeatureSet([0]))
        fitted = fit_pipeline(c, train, registry, seed=0)
        assert fitted.scaler.center.shape == (2,)
        preds = fitted.predict(train.instances)
        assert preds.shape == (4,)

    def test_holdout_error_scores_the_refit_on_the_test_rows(self, registry):
        train, test = make_dataset("madelon_like", 40, 4, 1), make_dataset("madelon_like", 30, 4, 2)
        c = Candidate(learner="random_forest", scaler="minmax")
        fitted = fit_pipeline(c, train, registry, seed=9)
        assert holdout_error(c, train, test, registry, 9) == error_rate(test.labels, fitted.predict(test.instances))
        with pytest.raises(DeadlineExceeded):
            holdout_error(c, train, test, registry, 9, deadline=Deadline(0.0))


class TestMccv:
    def test_split_protocol(self):
        d = make_dataset("separable", 50, 3, 1)
        cfg = EvalConfig(repeats=5, train_fraction=0.7, seed=9)
        splits = mccv_splits(d, cfg)
        assert len(splits) == 5
        for train_rows, val_rows in splits:
            assert len(train_rows) == 35 and len(val_rows) == 15
            assert set(train_rows).isdisjoint(val_rows)
        again = mccv_splits(d, cfg)
        for (a, b), (c, e) in zip(splits, again):
            assert np.array_equal(a, c) and np.array_equal(b, e)

    def test_single_class_scores_zero(self, registry):
        d = make_numeric_dataset(np.arange(10.0), np.zeros(10, dtype=int), class_names=["only"])
        s = mccv_score(Candidate(learner="knn"), d, EvalConfig(seed=1), registry)
        assert s.status == "ok" and s.mean == 0.0 and s.std == 0.0
        assert len(s.per_fold) == 5

    def test_data_without_rows_fail_every_candidate(self, registry):
        # no class at all is not one class: the folds cannot be drawn
        d = make_numeric_dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), class_names=["a", "b"])
        cfg = EvalConfig(seed=1)
        ev = Evaluator(registry=registry, dataset=d, cfg=cfg)
        scores = [mccv_score(Candidate("knn"), d, cfg, registry), ev.evaluate(Candidate("knn"), stage="probing")]
        scores += ev.evaluate_many([Candidate("knn"), Candidate("gaussian_nb")], stage="probing")
        assert [s.status for s in scores] == ["failed_error"] * 4

    @pytest.mark.parametrize(
        "candidate",
        [
            Candidate(learner="nope"),
            Candidate(learner="knn", params={"k": 2}),
            Candidate(learner="bagging"),
            Candidate(learner="knn", scaler="nope"),
        ],
        ids=["unknown-learner", "param-outside-space", "bare-meta", "unknown-scaler"],
    )
    def test_invalid_candidate_fails_on_any_labels(self, registry, candidate):
        # rejected before the first fold, one class or two
        one = make_numeric_dataset(np.arange(20.0), np.zeros(20, dtype=int), class_names=["only"])
        two = make_numeric_dataset(np.arange(20.0), [0, 1] * 10)
        for d in (one, two):
            s = mccv_score(candidate, d, EvalConfig(seed=1), registry)
            assert s.status == "failed_error" and s.mean is None and s.per_fold == ()

    def test_determinism_without_cache(self, registry):
        d = make_dataset("madelon_like", 80, 6, 2)
        cfg = EvalConfig(seed=4)
        c = Candidate(learner="random_forest")
        s1 = mccv_score(c, d, cfg, registry)
        s2 = mccv_score(c, d, cfg, registry)
        assert s1 == s2

    def test_mean_matches_fold_average(self, registry):
        d = make_dataset("madelon_like", 60, 4, 3)
        s = mccv_score(Candidate(learner="decision_tree"), d, EvalConfig(seed=5), registry)
        assert s.ok
        assert abs(s.mean - float(np.mean(s.per_fold))) < 1e-12

    def test_majority_learner_on_imbalanced_data(self, registry):
        # direct-computation oracle: stratified folds keep ~60/40, so a
        # majority-class learner sits near 0.40
        from stagedml.components.registry import LearnerSpec, Registry

        class MajorityModel:
            def __init__(self, labels):
                self.labels = labels  # (r,), each slice's majority class

            def predict(self, rows, deadline=None):
                return np.repeat(self.labels[:, None], rows.shape[1], axis=1)

        def fit_majority(X, y, n_classes, params, seed=0, deadline=None):
            return MajorityModel(np.array([np.argmax(np.bincount(s, minlength=n_classes)) for s in y]))

        reg = Registry(
            learners={
                "majority": LearnerSpec("majority", {}, {}, False, fit_majority),
            },
            scalers={},
            filters={},
        )
        rng = np.random.default_rng(6)
        y = np.array([0] * 60 + [1] * 40)
        d = make_numeric_dataset(rng.normal(size=(100, 2)), y)
        s = mccv_score(Candidate(learner="majority"), d, EvalConfig(seed=7), reg)
        assert s.ok
        assert abs(s.mean - 0.40) <= 0.05

    def test_learner_error_becomes_failed_error(self, registry):
        d = make_dataset("separable", 40, 3, 0)
        s = mccv_score(Candidate(learner="knn", params={"k": 2}), d, EvalConfig(seed=0), registry)
        assert s.status == "failed_error"
        assert s.mean is None

    def test_non_finite_scaler_output_is_failed_error(self, registry):
        cfg = EvalConfig(seed=0)
        datasets = (_huge_first_column(), _alternating_huge_first_column(), _lopsided_huge_first_column())
        for lid in ("knn", "logistic_regression"):  # fitted slice by slice and as one stack
            with np.errstate(over="ignore", invalid="ignore"):
                statuses = [
                    {s: mccv_score(Candidate(lid, scaler=s), d, cfg, registry).status for s in registry.scaler_ids()}
                    for d in datasets
                ]
            # standardize rescales a column whose mean overflows and minmax one
            # whose span overflows; standardize output that overflows is an error
            assert statuses == [
                {"standardize": "ok", "minmax": "ok", "quantile_rank": "ok"},
                {"standardize": "ok", "minmax": "ok", "quantile_rank": "ok"},
                {"standardize": "failed_error", "minmax": "ok", "quantile_rank": "ok"},
            ], lid

    def test_timeout_status_and_monotonicity(self, registry):
        d = make_dataset("madelon_like", 200, 20, 1)
        cfg_ok = EvalConfig(seed=2, per_eval_timeout=60.0)
        cfg_tiny = EvalConfig(seed=2, per_eval_timeout=1e-9)
        c = Candidate(learner="random_forest")
        assert mccv_score(c, d, cfg_ok, registry).status == "ok"
        # shrinking the budget can only move ok -> failed, never back
        assert mccv_score(c, d, cfg_tiny, registry).status == "failed_timeout"

    def test_external_deadline_respected(self, registry):
        d = make_dataset("madelon_like", 200, 20, 1)
        c = Candidate(learner="random_forest")
        s = mccv_score(c, d, EvalConfig(seed=2), registry, deadline=Deadline(0.0))
        assert s.status == "failed_timeout"


class TestEvaluator:
    def test_cache_hit_returns_same_score_without_new_journal_row(self, registry):
        d = make_dataset("separable", 40, 3, 5)
        ev = Evaluator(registry=registry, dataset=d, cfg=EvalConfig(seed=11))
        c = Candidate(learner="knn")
        s1 = ev.evaluate(c, stage="probing")
        n = ev.evaluation_count
        s2 = ev.evaluate(c, stage="tuning")
        assert s1 is s2
        assert ev.evaluation_count == n

    def test_journal_record_schema(self, registry):
        d = make_dataset("separable", 40, 3, 5)
        ev = Evaluator(registry=registry, dataset=d, cfg=EvalConfig(seed=11))
        ev.evaluate(Candidate(learner="gaussian_nb"), stage="probing")
        rec = ev.journal_records()[0].to_dict()
        assert set(rec) == {
            "candidate_key", "stage", "mean", "std", "per_fold",
            "status", "wall_ms", "seed", "auxiliary",
        }
        assert rec["stage"] == "probing"
        assert rec["status"] == "ok"

    def test_auxiliary_config_not_in_best(self, registry):
        d = make_dataset("separable", 40, 3, 5)
        ev = Evaluator(registry=registry, dataset=d, cfg=EvalConfig(seed=11))
        ev.evaluate(Candidate(learner="knn"), stage="filtering", repeats=3)
        assert ev.best_ok() is None
        ev.evaluate(Candidate(learner="knn"), stage="probing")
        best = ev.best_ok()
        assert best is not None and best[0] == "-|-|knn|default"

    def test_best_ok_tie_keeps_first_seen(self, registry):
        d = make_numeric_dataset(np.arange(12.0), np.zeros(12, dtype=int), class_names=["a"])
        ev = Evaluator(registry=registry, dataset=d, cfg=EvalConfig(seed=1))
        ev.evaluate(Candidate(learner="knn"), stage="probing")
        ev.evaluate(Candidate(learner="gaussian_nb"), stage="probing")
        assert ev.best_ok()[0] == "-|-|knn|default"

    def test_failed_candidates_journaled_not_best(self, registry):
        d = make_dataset("separable", 40, 3, 5)
        ev = Evaluator(registry=registry, dataset=d, cfg=EvalConfig(seed=11))
        s = ev.evaluate(Candidate(learner="knn", params={"k": 2}), stage="probing")
        assert not s.ok
        assert ev.best_ok() is None
        assert ev.journal_records()[0].status == "failed_error"

    def test_param_of_another_type_fails(self, registry):
        d = make_dataset("separable", 40, 3, 5)
        ev = Evaluator(registry=registry, dataset=d, cfg=EvalConfig(seed=11))
        for params in ({"k": True}, {"k": 1.0}):
            assert ev.evaluate(Candidate("knn", params=params), stage="probing").status == "failed_error"
        assert ev.evaluate(Candidate("knn", params={"k": 1}), stage="probing").ok


class TestFoldCache:
    CANDIDATES = [
        Candidate(learner="knn"),
        Candidate(learner="gaussian_nb", scaler="standardize"),
        Candidate(learner="decision_tree", features=FeatureSet([0, 2])),
        Candidate(learner="knn", params={"k": 2}),  # outside knn's domain: failed_error
    ]

    @pytest.fixture
    def built(self, monkeypatch):
        """The repeats of every ``mccv_splits`` call, in order."""
        repeats = []
        real = evaluation.mccv_splits

        def counting(dataset, cfg):
            repeats.append(cfg.repeats)
            return real(dataset, cfg)

        monkeypatch.setattr(evaluation, "mccv_splits", counting)
        return repeats

    def _journal(self, ev):
        return [{k: v for k, v in r.to_dict().items() if k != "wall_ms"} for r in ev.journal_records()]

    def test_splits_built_once_per_evaluator(self, registry, built):
        d = make_dataset("separable", 60, 3, 5)
        ev = Evaluator(registry=registry, dataset=d, cfg=EvalConfig(seed=11))
        for c in self.CANDIDATES:
            ev.evaluate(c, stage="probing")
            ev.evaluate(c, stage="filtering", repeats=3)
            ev.evaluate(c, stage="filtering", repeats=7)  # more than the run's: the full score, cached
        assert built == [5]
        assert ev.evaluation_count == 2 * len(self.CANDIDATES)

    def test_fewer_repeats_score_on_the_first_folds(self, registry):
        d = make_dataset("madelon_like", 60, 4, 3)
        ev = Evaluator(registry=registry, dataset=d, cfg=EvalConfig(seed=4))
        for c in [*self.CANDIDATES[:3], Candidate("random_forest", features=FeatureSet([1, 3]))]:
            point = ev.evaluate(c, stage="filtering", repeats=CHEAP_REPEATS)
            full = ev.evaluate(c, stage="probing")
            assert len(full.per_fold) == 5 and point.per_fold == full.per_fold[:CHEAP_REPEATS]
        assert [r.auxiliary for r in ev.journal_records()] == [True, False] * 4
        assert {r.seed for r in ev.journal_records()} == {4}

    def test_cached_folds_score_like_fresh_folds(self, registry):
        d = make_dataset("madelon_like", 60, 4, 3)
        cfg = EvalConfig(seed=4)
        ev = Evaluator(registry=registry, dataset=d, cfg=cfg)
        for c in self.CANDIDATES:
            assert ev.evaluate(c, stage="probing") == mccv_score(c, d, cfg, registry)

    def test_invalid_candidate_reaches_no_fit(self, registry):
        d = make_dataset("separable", 60, 3, 5)
        fits = []
        ev = Evaluator(
            registry=spy_registry(registry, lambda component, stack: fits.append((component, stack.shape))),
            dataset=d,
            cfg=EvalConfig(seed=11),
        )
        for c in self.CANDIDATES:
            ev.evaluate(c, stage="probing")
        assert [r["status"] for r in self._journal(ev)] == ["ok"] * 3 + ["failed_error"]
        # k=2 lies outside knn's domain, so it is rejected before its first fold
        assert fits == [("knn", (5, 42, 3))] + [("standardize", (1, 42, 3))] * 5 + [
            ("gaussian_nb", (5, 42, 3)), ("decision_tree", (5, 42, 2))
        ]

    def test_no_dataset_built_per_candidate(self, registry, monkeypatch):
        d = make_dataset("separable", 60, 3, 5)
        ev = Evaluator(registry=registry, dataset=d, cfg=EvalConfig(seed=11))
        ev.evaluate(Candidate(learner="knn"), stage="probing")  # builds the folds
        built = []
        real = Dataset.__post_init__
        monkeypatch.setattr(Dataset, "__post_init__", lambda self: built.append(1) or real(self))
        for c in self.CANDIDATES[1:]:
            ev.evaluate(c, stage="probing")
            ev.evaluate(c.with_meta("bagging", {"n_estimators": 1}), stage="meta")
        assert built == []

    def test_singleton_class_is_in_every_fold_train(self, registry):
        rng = np.random.default_rng(3)
        y = np.array([0] * 20 + [1] * 20 + [2])
        d = make_numeric_dataset(rng.normal(size=(41, 3)), y)
        for train, _ in evaluation.mccv_splits(d, EvalConfig(seed=1)):
            assert 40 in train
        ev = Evaluator(registry=registry, dataset=d, cfg=EvalConfig(seed=1))
        for c in self.CANDIDATES[:-1]:
            assert ev.evaluate(c, stage="probing").status == "ok"
        assert ev.evaluate(self.CANDIDATES[-1], stage="probing").status == "failed_error"
        assert ev.evaluate(Candidate(learner="knn"), stage="filtering", repeats=3).ok
        assert ev.best_ok() is not None


class TestStackedFolds:
    """Every candidate fits all its folds in one stacked call, and its
    journal is the one of fitting each fold alone."""

    CANDIDATES = [
        Candidate(learner="logistic_regression"),
        Candidate(learner="logistic_regression", params={"learning_rate": 0.1, "epochs": 60, "l2": 1.0}),
        Candidate(learner="logistic_regression", scaler="standardize", features=FeatureSet([0, 2])),
        Candidate(learner="logistic_regression", scaler="quantile_rank"),
        Candidate(learner="logistic_regression", features=FeatureSet([7])),  # out of range: failed_error
        Candidate("logistic_regression", params={"epochs": 50}, meta="bagging", meta_params={"n_estimators": 5}),
        Candidate("logistic_regression", params={"epochs": 50}, meta="adaboost", meta_params={"n_estimators": 5}),
        Candidate(learner="knn"),
        Candidate(learner="gaussian_nb", scaler="minmax", features=FeatureSet([1, 3])),
    ]
    TREE_CANDIDATES = [
        Candidate(learner="decision_tree"),
        Candidate(learner="decision_tree", params={"max_depth": 2, "min_split": 5}, scaler="minmax"),
        Candidate(learner="random_forest"),
        Candidate(learner="random_forest", params={"n_trees": 5, "max_depth": 4, "feature_subsample": 1.0}),
        Candidate(learner="random_forest", features=FeatureSet([1, 3])),
        Candidate(
            "random_forest", meta="bagging", meta_params={"n_estimators": 5, "replace": False, "sample_fraction": 0.7}
        ),
        Candidate("random_forest", meta="bagging"),
        Candidate("decision_tree", meta="bagging", meta_params={"n_estimators": 25, "sample_fraction": 0.5}),
        Candidate("random_forest", meta="adaboost", meta_params={"n_estimators": 5}),
        Candidate("decision_tree", meta="adaboost", meta_params={"n_estimators": 10, "learning_rate": 0.5}),
        Candidate("knn", meta="bagging", meta_params={"n_estimators": 5}),
        Candidate("knn", params={"k": 3}, meta="adaboost", meta_params={"n_estimators": 5}),
        Candidate("gaussian_nb", meta="adaboost", meta_params={"n_estimators": 5}),
        Candidate("gaussian_nb", meta="bagging", meta_params={"n_estimators": 5, "replace": False}),
    ]

    @staticmethod
    def _registry(registry, events=None, before_fit=None):
        """A copy of ``registry`` whose learners log each fit as
        ("fit", learner id, X.ndim) in ``events``."""
        learners = {}
        for lid, spec in registry.learners.items():

            def fit(X, *args, _fit=spec.fit, _lid=lid, **kwargs):
                if events is not None:
                    events.append(("fit", _lid, np.ndim(X)))
                if before_fit is not None:
                    before_fit(kwargs["deadline"])
                return _fit(X, *args, **kwargs)

            learners[lid] = replace(spec, fit=fit)
        return replace(registry, learners=learners)

    @staticmethod
    def _outcomes(ev):
        return [
            {k: r.to_dict()[k] for k in ("candidate_key", "status", "mean", "std", "per_fold")}
            for r in ev.journal_records()
        ]

    @staticmethod
    def _per_fold_reference(c, d, cfg, registry):
        """The journal outcome of ``c`` with each fold fitted alone:
        ``fit_pipeline`` on the fold's train rows with the fold's seed."""
        key = candidate_key(c)
        per_fold = []
        try:
            for r, (train, val) in enumerate(mccv_splits(d, cfg)):
                fitted = fit_pipeline(c, d.subset_rows(train), registry, seed=derive_seed(cfg.seed, "fit", key, r))
                per_fold.append(error_rate(d.labels[val], fitted.predict(d.instances[val])))
        except Exception:
            return {"candidate_key": key, "status": "failed_error", "mean": None, "std": None, "per_fold": []}
        scores = np.array(per_fold)
        return {"candidate_key": key, "status": "ok", "mean": float(scores.mean()), "std": float(scores.std()),
                "per_fold": per_fold}

    def test_one_stacked_fit_per_logistic_evaluation(self, registry):
        d = make_dataset("madelon_like", 60, 4, 3)
        cfg = EvalConfig(seed=4)
        events = []
        reg = self._registry(registry, events)
        for lid in ("logistic_regression", "knn", "gaussian_nb"):
            events.clear()
            assert mccv_score(Candidate(learner=lid), d, cfg, reg).ok
            assert events == [("fit", lid, 3)]

    def test_stacked_folds_give_the_per_fold_journal(self, registry):
        d = make_dataset("madelon_like", 60, 4, 3)
        cfg = EvalConfig(seed=4)
        events = []
        ev = Evaluator(registry=self._registry(registry, events), dataset=d, cfg=cfg)
        for c in self.CANDIDATES:
            ev.evaluate(c, stage="probing")
        journal = self._outcomes(ev)
        assert journal == [self._per_fold_reference(c, d, cfg, registry) for c in self.CANDIDATES]
        assert [r["status"] for r in journal].count("failed_error") == 1
        # one fit for each of four plain candidates that reach a fit, one for
        # the bagging estimators of all folds and one per boosting round (five)
        # of the folds still boosting; no fit of one problem
        assert [events.count(("fit", "logistic_regression", ndim)) for ndim in (2, 3)] == [0, 4 + 1 + 5]
        assert events.count(("fit", "knn", 3)) == events.count(("fit", "gaussian_nb", 3)) == 1

    def test_stacked_tree_and_meta_folds_give_the_per_fold_journal(self, registry):
        d = make_dataset("madelon_like", 60, 4, 3)
        grid = make_numeric_dataset(np.round(d.instances), d.labels)
        cfg = EvalConfig(seed=4)
        for data in (d, grid):
            ev = Evaluator(registry=registry, dataset=data, cfg=cfg)
            for c in self.TREE_CANDIDATES:
                ev.evaluate(c, stage="meta")
            journal = self._outcomes(ev)
            assert journal == [self._per_fold_reference(c, data, cfg, registry) for c in self.TREE_CANDIDATES]
            assert all(r["status"] == "ok" for r in journal)

    @pytest.mark.parametrize("candidate", [
        Candidate(learner="random_forest"),
        Candidate("random_forest", meta="bagging"),
        Candidate("random_forest", meta="adaboost"),
    ])
    def test_deadline_lapsing_mid_growth_is_failed_timeout(self, registry, monkeypatch, candidate):
        from stagedml.components import learners

        searches = []
        real = learners._best_splits

        def slow(*args):
            # the first split search outlasts the evaluation's budget
            if not searches:
                time.sleep(0.4)
            searches.append(1)
            return real(*args)

        monkeypatch.setattr(learners, "_best_splits", slow)
        d = make_dataset("madelon_like", 60, 4, 3)
        s = mccv_score(candidate, d, EvalConfig(seed=4, per_eval_timeout=0.3), registry)
        assert s.status == "failed_timeout" and len(searches) == 1

    def test_deadline_lapsing_inside_stacked_fit_is_failed_timeout(self, registry):
        d = make_dataset("madelon_like", 60, 4, 3)

        def wait_out(deadline):
            while not deadline.expired():
                time.sleep(0.005)

        events = []
        reg = self._registry(registry, events, before_fit=wait_out)
        s = mccv_score(Candidate(learner="logistic_regression"), d, EvalConfig(seed=4, per_eval_timeout=0.5), reg)
        assert s.status == "failed_timeout"
        assert events == [("fit", "logistic_regression", 3)]

    def test_one_non_finite_fold_is_failed_error(self, registry):
        d = make_dataset("madelon_like", 40, 2, 3)
        cfg = EvalConfig(seed=4)
        folds = mccv_splits(d, cfg)
        # fold 2 trains on copies of its train rows, appended below the data,
        # whose first column standardize maps to -inf
        train, val = folds[2]
        x = d.instances[train].copy()
        x[:, 0] = np.tile([1.5e308, 1.5e308, -1.5e308], train.size)[: train.size]
        poisoned = make_numeric_dataset(np.concatenate([d.instances, x]), np.concatenate([d.labels, d.labels[train]]))
        folds[2] = (d.n_rows + np.arange(train.size), val)
        events = []
        reg = self._registry(registry, events)
        c = Candidate(learner="logistic_regression", scaler="standardize")
        assert mccv_score(c, poisoned, cfg, reg, folds=mccv_splits(d, cfg)).ok
        with np.errstate(over="ignore", invalid="ignore"):
            s = mccv_score(c, poisoned, cfg, reg, folds=folds)
        assert s.status == "failed_error" and events == [("fit", "logistic_regression", 3)]

    def test_bagging_chunks_predict_like_one_stack(self, registry, monkeypatch):
        from stagedml.components import meta

        d = make_dataset("madelon_like", 60, 4, 3)
        c = Candidate("logistic_regression", params={"epochs": 50}, meta="bagging", meta_params={"n_estimators": 10})
        probe = np.random.default_rng(2).normal(size=(30, 4))
        preds = []
        # one chunk; chunks of three 60x4 samples; one estimator each
        for cells, chunks in ((meta.STACK_CELLS, 1), (3 * 60 * 4, 4), (1, 10)):
            monkeypatch.setattr(meta, "STACK_CELLS", cells)
            events = []
            fitted = fit_pipeline(c, d, self._registry(registry, events), seed=5)
            assert events[1:] == [("fit", "logistic_regression", 3)] * chunks
            preds.append(fitted.predict(probe))
        for p in preds[:-1]:
            assert np.array_equal(p, preds[-1])


class TestLeakageCanary:
    def test_outlier_in_validation_fold_never_touches_scaler(self, registry):
        rng = np.random.default_rng(20)
        for trial in range(5):
            x = rng.normal(size=(40, 2))
            y = np.array([0, 1] * 20)
            cfg = EvalConfig(seed=trial)
            d0 = make_numeric_dataset(x, y)
            train_rows, val_rows = mccv_splits(d0, cfg)[0]
            x = x.copy()
            x[val_rows[0], 0] = 1e9  # canary outlier lives in the validation part
            d = make_numeric_dataset(x, y)
            train_part = d.subset_rows(train_rows)
            fitted = fit_pipeline(
                Candidate(learner="gaussian_nb", scaler="standardize"), train_part, registry, seed=0
            )
            assert fitted.scaler.center[0] == pytest.approx(train_part.instances[:, 0].mean())
            assert abs(fitted.scaler.center[0]) < 1e6  # untouched by the outlier


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from([1, 3, 5, 7, 11, 15, 21]),
    scaler=st.sampled_from([None, "standardize", "minmax", "quantile_rank"]),
    features=st.one_of(st.none(), st.sets(st.integers(0, 5), min_size=1, max_size=6)),
)
def test_candidate_key_injective_over_distinct_candidates(k, scaler, features):
    base = Candidate(learner="knn", params={"k": 5})
    other = Candidate(
        learner="knn",
        params={"k": k},
        scaler=scaler,
        features=FeatureSet(features) if features else None,
    )
    if (other.params, other.scaler, other.features) != (base.params, base.scaler, base.features):
        assert candidate_key(other) != candidate_key(base)


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=5),
    repeats=st.integers(min_value=1, max_value=6),
    train_fraction=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    order=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mccv_fold_sizes_equal_across_repeats(counts, repeats, train_fraction, seed, order):
    """Fold sizes depend on the labels and the train fraction only, never on
    the split seed, so the folds of any label distribution (singleton
    classes and absent class ids included) stack."""
    assume(sum(c > 0 for c in counts) >= 2)
    y = np.random.default_rng(order).permutation(np.repeat(np.arange(len(counts)), counts))
    d = make_numeric_dataset(np.zeros((y.size, 1)), y, class_names=[f"c{k}" for k in range(len(counts))])
    splits = mccv_splits(d, EvalConfig(repeats=repeats, train_fraction=train_fraction, seed=seed))
    assert len({(train.size, val.size) for train, val in splits}) == 1


GROUP_BASE_IDS = ("knn", "gaussian_nb", "decision_tree", "random_forest", "logistic_regression")
GROUP_META = {None: None, "bagging": {"n_estimators": 5}, "adaboost": {"n_estimators": 5}}


@settings(max_examples=40, deadline=None)
@given(
    learner=st.sampled_from(GROUP_BASE_IDS),
    meta=st.sampled_from(sorted(GROUP_META, key=str)),
    kind=st.sampled_from(["normal", "grid", "lopsided"]),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_group_scores_equal_scores_alone(registry, learner, meta, kind, seed, data):
    """A group of candidates of one stack signature scores each member as
    ``mccv_score`` does alone: mixed scalers (none included) and feature
    sets of one width, on normal, integer-grid and overflowing data. On
    the overflowing data standardize yields non-finite values, so its
    member fails alone and the rest stay one stack."""
    if kind == "lopsided":
        d = _lopsided_huge_first_column()
    else:
        d = random_dataset(np.random.default_rng(seed), d=4)
        if kind == "grid":
            d = make_numeric_dataset(np.round(2.0 * d.instances), d.labels, d.class_names)
    width = data.draw(st.integers(1, d.n_columns), label="width")
    n = data.draw(st.integers(1, 5), label="members")
    scalers = data.draw(st.lists(st.sampled_from([None, *registry.scaler_ids()]), min_size=n, max_size=n), label="scalers")
    if kind == "lopsided":
        scalers[data.draw(st.integers(0, n - 1), label="poisoned")] = "standardize"
    members = []
    for scaler in scalers:
        columns = data.draw(st.permutations(range(d.n_columns)), label="columns")[:width]
        features = None if width == d.n_columns and data.draw(st.booleans(), label="all") else FeatureSet(columns)
        c = Candidate(learner, scaler=scaler, features=features)
        members.append(c.with_meta(meta, GROUP_META[meta]) if meta is not None else c)
    cfg = EvalConfig(seed=seed)
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [mccv_score(c, d, cfg, registry) for c in members]
        with mock.patch.object(evaluation, "mccv_score", side_effect=AssertionError("scored alone")):
            grouped = evaluation.mccv_score_group(members, d, cfg, registry)
    assert grouped == alone
    if kind == "lopsided":
        assert [s.status for s in grouped] == [STATUS_ERROR if s == "standardize" else "ok" for s in scalers]


# ---------------------------------------------------------------------------
# batches on worker processes


def _batch():
    """Nine candidates: two repeated keys among them."""
    batch = [Candidate("knn", params={"k": k}) for k in (1, 3, 5)]
    batch += [Candidate(lid, scaler="standardize") for lid in ("gaussian_nb", "logistic_regression", "decision_tree")]
    batch += [Candidate("decision_tree", meta="bagging"), batch[0], batch[3]]
    return batch


def _stripped(ev):
    return [{k: v for k, v in r.to_dict().items() if k != "wall_ms"} for r in ev.journal_records()]


class TestEvaluateMany:
    @pytest.fixture(autouse=True)
    def no_stray_workers(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.fixture(autouse=True)
    def pool_cells_of_one(self, monkeypatch):
        """These batches hold far fewer training cells than POOL_CELLS;
        they test the worker mechanics, so any batch of two keys may go
        to workers."""
        monkeypatch.setattr(evaluation, "POOL_CELLS", 1)

    def test_batches_below_pool_cells_stay_in_process(self, registry, monkeypatch):
        monkeypatch.setattr(evaluation, "WORKERS", 2)
        data = make_dataset("separable", 40, 3, 0)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=1))
        cells = ev._cells_per_column() * 3 * 2  # two keys left, each of all three columns
        monkeypatch.setattr(evaluation, "POOL_CELLS", cells + 1)
        pair = [Candidate("knn"), Candidate("gaussian_nb")]
        assert all(s.ok for s in ev.evaluate_many(pair, stage="probing"))
        assert ev._workers is None
        monkeypatch.setattr(evaluation, "POOL_CELLS", cells)
        assert all(s.ok for s in ev.evaluate_many(_batch()[:2], stage="meta"))
        assert ev._workers is not None
        ev.close()

    def test_journal_and_scores_independent_of_worker_count(self, registry, monkeypatch):
        data = make_dataset("madelon_like", 60, 4, 3)
        out = []
        for workers in (1, 2):
            monkeypatch.setattr(evaluation, "WORKERS", workers)
            ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=4))
            first = ev.evaluate(Candidate("gaussian_nb", scaler="standardize"), stage="probing")  # cached
            scores = ev.evaluate_many(_batch(), stage="meta")
            assert (ev._workers is not None) == (workers == 2)
            assert scores[3] is first and scores[7] == scores[0] and scores[8] is first
            again = ev.evaluate_many(_batch(), stage="meta")
            assert again == scores and ev.evaluation_count == 7  # one cached, two repeats
            out.append((scores, _stripped(ev)))
            ev.close()
        assert out[0] == out[1]
        assert [r["stage"] for r in out[1][1]] == ["probing"] + ["meta"] * 6

    def test_batches_of_one_key_stay_in_process(self, registry, monkeypatch):
        monkeypatch.setattr(evaluation, "WORKERS", 2)
        data = make_dataset("separable", 40, 3, 0)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=1))
        assert ev.evaluate_many([Candidate("knn"), Candidate("knn")], stage="probing")[0].ok
        assert ev._workers is None

    def test_unpicklable_registry_runs_in_process(self, registry, monkeypatch):
        monkeypatch.setattr(evaluation, "WORKERS", 2)
        local = LearnerSpec(id="local", default_params={}, param_space={}, is_meta=False,
                            fit=lambda X, y, n_classes, params, seed=0, deadline=None: fit_gaussian_nb(X, y, n_classes, params))
        reg = replace(registry, learners={**registry.learners, "local": local})
        ev = Evaluator(registry=reg, dataset=make_dataset("separable", 40, 3, 0), cfg=EvalConfig(seed=1))
        scores = ev.evaluate_many([Candidate("local"), Candidate("knn")], stage="meta")
        assert ev._workers is None and all(s.ok for s in scores)

    def test_lapsed_deadline_dispatches_nothing(self, registry, monkeypatch):
        monkeypatch.setattr(evaluation, "WORKERS", 2)
        ev = Evaluator(registry=registry, dataset=make_dataset("separable", 40, 3, 0), cfg=EvalConfig(seed=1))
        assert ev.evaluate_many(_batch(), stage="meta", deadline=Deadline(0.0)) == [None] * 9
        assert ev.evaluation_count == 0
        ev.close()

    def test_no_workers_forked_while_another_thread_runs(self, registry, monkeypatch):
        """Forking a process that runs other threads can deadlock the
        child, so the batch runs in this process instead."""
        monkeypatch.setattr(evaluation, "WORKERS", 2)
        data = make_dataset("separable", 40, 3, 0)
        cfg = EvalConfig(seed=1)
        ev = Evaluator(registry=registry, dataset=data, cfg=cfg)
        pair = [Candidate("knn"), Candidate("gaussian_nb")]
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            scores = ev.evaluate_many(pair, stage="meta")
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive() and ev._workers is None
        assert scores == [mccv_score(c, data, cfg, registry) for c in pair]

    def test_single_class_batch_forks_no_workers(self, registry, monkeypatch):
        # its folds reach POOL_CELLS, but every candidate scores 0 trivially
        monkeypatch.setattr(evaluation, "WORKERS", 2)
        x = np.random.default_rng(0).normal(size=(600, 6))
        data = make_numeric_dataset(x, np.zeros(600, dtype=int), class_names=["only"])
        cfg = EvalConfig(seed=1)
        ev = Evaluator(registry=registry, dataset=data, cfg=cfg)
        batch = [Candidate(learner) for learner in ("knn", "gaussian_nb", "decision_tree")]
        scores = ev.evaluate_many(batch, stage="probing")
        forked = ev._workers is not None
        ev.close()
        assert not forked
        assert scores == [mccv_score(c, data, cfg, registry) for c in batch] and all(s.mean == 0.0 for s in scores)

    def test_stack_past_its_timeout_scores_each_member_alone(self, registry, monkeypatch):
        monkeypatch.setattr(evaluation, "WORKERS", 2)
        spec = LearnerSpec(id="slow_stack", default_params={}, param_space={}, is_meta=False, fit=_slow_stack_fit)
        reg = replace(registry, learners={**registry.learners, "slow_stack": spec})
        data = make_dataset("separable", 40, 3, 0)
        cfg = EvalConfig(seed=1, per_eval_timeout=SLOW_STACK_TIMEOUT)
        batch = [Candidate("slow_stack", scaler=s) for s in (None, "standardize", "minmax", "quantile_rank")]
        ev = Evaluator(registry=reg, dataset=data, cfg=cfg)
        scores = ev.evaluate_many(batch, stage="meta")
        ev.close()
        alone = [mccv_score(c, data, cfg, reg) for c in batch]
        assert all(s.ok for s in alone) and scores == alone
        # two stacks of two went out and each slept out its timeout first
        assert all(r.wall_ms >= 1000.0 * SLOW_STACK_TIMEOUT for r in ev.journal_records())

    def test_worker_that_dies_fails_its_candidate(self, registry, monkeypatch):
        monkeypatch.setattr(evaluation, "WORKERS", 2)
        ev = Evaluator(registry=exiting_registry(registry), dataset=make_dataset("separable", 40, 3, 0),
                       cfg=EvalConfig(seed=1))
        batch = [Candidate("exits"), Candidate("knn"), Candidate("exits", scaler="minmax"), Candidate("gaussian_nb")]
        statuses = [s.status for s in ev.evaluate_many(batch, stage="meta")]
        assert statuses == [STATUS_ERROR, "ok", STATUS_ERROR, "ok"]
        assert [r.candidate_key for r in ev.journal_records()] == [candidate_key(c) for c in batch]
        # the replaced workers keep scoring
        assert all(s.ok for s in ev.evaluate_many([Candidate("knn", params={"k": 1}), Candidate("decision_tree")], stage="meta"))
        ev.close()
