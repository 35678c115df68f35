"""Golden-journal guard: fixed-work runs must keep their exact output.

Small searches run with every budget switched off, so they do the same
evaluations however fast the code is. The sha256 of their journals
(without ``wall_ms``) and best keys is pinned, and so are their stage
traces and pool snapshots, the config of every preset, and the journal
of fixed lists of logistic-regression and tree candidates, plain and
wrapped in a meta-learner, that cover the stacked fits. A change that alters search behaviour on
purpose re-pins the hash and says why; a change meant to be a pure
refactor or speed-up must leave it alone. Every pinned output is made
with one worker process and with two, and both must agree.
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from stagedml import evaluation, orchestrator
from stagedml.components.registry import registry_default
from stagedml.data import FeatureSet
from stagedml.evaluation import Candidate, EvalConfig, Evaluator
from stagedml.rng import Rng
from stagedml.synth import make_dataset

from conftest import make_numeric_dataset

GOLDEN_SHA256 = "4778bc5f397ea40a133de448210bba9e72a9bdcbe7f3109018985a278ec69d7a"
# meta-learner fits and the validation stage's refit and holdout predict
META_VALIDATION_SHA256 = "67deef98d09aaefc581b062ef030316aadf91921f9e91e4905c43c21d0aa32e2"
# logistic-regression candidates, plain and bagged, scored directly
LOGISTIC_SHA256 = "819337da3ad234617a429116f25a9e99bdd79a078fc7f856f8cd68bb2f9799e1"
# stage traces without start and end times, pool snapshots, preset configs
TRACES_CONFIGS_SHA256 = "d7e374b35068325d6cb8399e7eff3863835ca5f994d73b76b4fa4e821acb4ec9"
# tree, forest, bagged-forest and boosted candidates, scored directly
FOREST_SHA256 = "0320a78afc172f272d5e435e44743a6cbf539c8914326565ae471a81519018d4"


def _fixed_work(cfg: orchestrator.SchemeConfig) -> orchestrator.SchemeConfig:
    stages = [replace(s, time_limit=None) for s in cfg.stages]
    return replace(
        cfg,
        stages=stages,
        global_timeout=math.inf,
        eval=replace(cfg.eval, per_eval_timeout=math.inf),
    )


def _report(dataset, preset: str, seed: int) -> orchestrator.RunReport:
    presets = orchestrator.scheme_presets(seed=seed, eval_config=EvalConfig(seed=seed))
    return orchestrator.run(dataset, _fixed_work(presets[preset]))


def _journal(report: orchestrator.RunReport) -> list[dict]:
    return [{k: v for k, v in rec.items() if k != "wall_ms"} for rec in report.journal]


def _traces(report: orchestrator.RunReport) -> list[dict]:
    return [{k: v for k, v in t.items() if k not in ("started", "ended")} for t in report.stage_traces]


def _under_each_worker_count(make, pinned):
    """``make()`` with one worker and with two: the two must agree on
    ``pinned(output)``; returns the output with two."""
    outs = []
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "WORKERS", workers)
            outs.append(make())
    assert pinned(outs[0]) == pinned(outs[1])
    return outs[1]


def _grid_dataset():
    # features on an integer grid, so knn sees many exact distance ties
    d = make_dataset("scale_sensitive", 160, 4, 5)
    return make_numeric_dataset(np.round(d.instances), d.labels)


@pytest.fixture(scope="module")
def reports() -> list[orchestrator.RunReport]:
    """The fixed-work runs every pin below reads, each run once."""
    madelon = make_dataset("madelon_like", 60, 4, 3)
    runs = [
        (_grid_dataset(), "primitive", 3),
        (_grid_dataset(), "monotone-filtering", 4),
        (make_dataset("scale_sensitive", 150, 5, 11), "monotone-filtering", 11),
        (madelon, "single-meta", 3),
        (madelon, "single-validation", 3),
    ]
    return [
        _under_each_worker_count(
            lambda: _report(*run),
            lambda r: (_journal(r), r.best_key, r.best_score, _traces(r), r.pool_snapshots),
        )
        for run in runs
    ]


def test_fixed_work_journals_unchanged(reports):
    runs = [
        {"preset": r.config["name"], "best_key": r.best_key, "journal": _journal(r)}
        for r in reports[:3]
    ]
    for r in runs:
        assert r["journal"] and r["best_key"] is not None
    blob = json.dumps(runs, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256


def test_meta_and_validation_journals_unchanged(reports):
    runs = []
    for report in reports[3:]:
        preset = report.config["name"]
        finalists = [t["detail"]["finalists"] for t in report.stage_traces if t["stage_id"] == "validation"]
        runs.append(
            {
                "preset": preset,
                "journal": _journal(report),
                "best_key": report.best_key,
                "best_score": report.best_score,
                "selection_basis": report.selection_basis,
                "finalists": finalists,
            }
        )
    assert [r["selection_basis"] for r in runs] == ["any-stage-best", "validation-final"]
    assert runs[1]["finalists"][0]  # the holdout rescored some finalists
    blob = json.dumps(runs, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == META_VALIDATION_SHA256


def test_stage_traces_and_configs_unchanged(reports):
    runs = [
        {
            "stage_traces": _traces(r),
            "pool_snapshots": r.pool_snapshots,
        }
        for r in reports
    ]
    configs = [cfg.describe() for cfg in orchestrator.scheme_presets().values()]
    # no sort_keys: the key order of traces and configs is pinned too
    blob = json.dumps({"runs": runs, "configs": configs}).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == TRACES_CONFIGS_SHA256


def _scored(ev: Evaluator, candidates) -> list[dict]:
    """The journal of ``candidates`` scored as one batch."""
    ev.evaluate_many(candidates, stage="probing")
    ev.close()
    return [{k: v for k, v in r.to_dict().items() if k != "wall_ms"} for r in ev.journal_records()]


def test_logistic_journal_unchanged():
    reg = registry_default()
    rng = Rng(5)
    param_sets = [None] + [reg.sample_params("logistic_regression", rng) for _ in range(4)]
    candidates = [
        Candidate("logistic_regression", params=params, scaler=scaler, features=features)
        for params in param_sets
        for scaler in (None, *reg.scaler_ids())
        for features in (None, FeatureSet([0, 2]))
    ]
    candidates += [
        Candidate(
            "logistic_regression",
            params={"epochs": 50},
            meta="bagging",
            meta_params={"replace": replace_rows, "sample_fraction": fraction, "n_estimators": n},
        )
        for replace_rows in (True, False)
        for fraction in (0.5, 0.7, 1.0)
        for n in (1, 25)
    ]
    cfg = EvalConfig(seed=3, per_eval_timeout=math.inf)
    journal = _under_each_worker_count(
        lambda: _scored(Evaluator(registry=reg, dataset=make_dataset("madelon_like", 60, 4, 3), cfg=cfg), candidates),
        lambda journal: journal,
    )
    assert len(journal) == 52 and all(r["status"] == "ok" for r in journal)
    blob = json.dumps(journal, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == LOGISTIC_SHA256


def test_forest_journal_unchanged():
    madelon = make_dataset("madelon_like", 60, 4, 3)
    # the same rows on an integer grid, so split searches meet tied values
    grid = make_numeric_dataset(np.round(madelon.instances), madelon.labels, class_names=madelon.class_names)
    candidates = [
        Candidate("random_forest", params={"n_trees": n, "max_depth": depth, "feature_subsample": fraction})
        for n in (5, 25)
        for depth in (0, 4)
        for fraction in (0.25, 0.5, 0.75, 1.0)
    ]
    candidates += [
        Candidate("decision_tree", params={"max_depth": depth, "min_split": split})
        for depth in (0, 2)
        for split in (2, 9)
    ]
    candidates += [c.with_features(FeatureSet([0, 2])) for c in candidates]
    candidates += [
        Candidate(
            "random_forest",
            meta="bagging",
            meta_params={"replace": replace_rows, "sample_fraction": fraction, "n_estimators": 10},
        )
        for replace_rows in (True, False)
        for fraction in (0.5, 1.0)
    ]
    # on the grid, boosting decision trees stops early in some folds, both
    # on a round without error and on one no better than chance
    boosted = {"n_estimators": 10}
    candidates += [Candidate(base, meta="adaboost", meta_params=boosted) for base in ("random_forest", "decision_tree")]
    cfg = EvalConfig(seed=3, per_eval_timeout=math.inf)
    journal = []
    for dataset in (madelon, grid):
        journal += _under_each_worker_count(
            lambda: _scored(Evaluator(registry=registry_default(), dataset=dataset, cfg=cfg), candidates),
            lambda journal: journal,
        )
    assert len(journal) == 2 * 46 and all(r["status"] == "ok" for r in journal)
    blob = json.dumps(journal, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == FOREST_SHA256
