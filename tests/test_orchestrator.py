import json
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from stagedml import evaluation, orchestrator
from stagedml.evaluation import Candidate, EvalConfig, candidate_key, mccv_score
from stagedml.orchestrator import (
    SchemeConfig,
    holdout_split,
    run,
    scheme_presets,
)
from stagedml.components.learners import fit_decision_tree, fit_gaussian_nb
from stagedml.components.registry import LearnerSpec
from stagedml.stages import MetaStage, ProbingStage, ScalingStage, TuningStage, ValidationConfig, ValidationStage
from stagedml.synth import make_dataset

from conftest import exiting_registry, make_numeric_dataset, spy_registry


def fast_eval(seed=0):
    return EvalConfig(repeats=5, train_fraction=0.7, seed=seed, per_eval_timeout=30.0)


def presets_for_tests(seed, **kw):
    return scheme_presets(seed=seed, eval_config=fast_eval(seed), **kw)


SLOW_SECONDS = 0.6


class _Plain:
    """A model whose predictions ignore their deadline."""

    def __init__(self, model):
        self.model = model

    def predict(self, rows, deadline=None):
        return self.model.predict(rows)


def _slow_tuned_fit(X, y, n_classes, params, seed=0, deadline=None):
    """A decision tree that ignores its deadline, after SLOW_SECONDS of
    sleep unless its params are the defaults."""
    if params != {"max_depth": 0, "min_split": 2}:
        time.sleep(SLOW_SECONDS)
    return _Plain(fit_decision_tree(X, y, n_classes, params, seed=seed))


class TestPresets:
    def test_primitive_single_stage(self):
        p = scheme_presets()["primitive"]
        assert [s.stage_id for s in p.stages] == ["probing"]
        assert p.validation is None

    def test_full_six_stages_validation_last(self):
        p = scheme_presets()["full"]
        assert [s.stage_id for s in p.stages] == [
            "probing", "scaling", "filtering", "meta", "tuning", "validation",
        ]
        assert p.validation == ValidationConfig(n_bar=10000, m=10, holdout_fraction=0.10)

    def test_monotone_filtering(self):
        p = scheme_presets()["monotone-filtering"]
        assert [s.stage_id for s in p.stages] == ["probing", "scaling", "filtering"]

    def test_single_stage_presets(self):
        p = scheme_presets()["single-meta"]
        assert [s.stage_id for s in p.stages] == ["probing", "meta"]

    def test_meta_and_tuning_carry_stage_budgets(self):
        p = scheme_presets()["full"]
        limits = {s.stage_id: s.time_limit for s in p.stages}
        assert limits["meta"] == 300.0
        assert limits["tuning"] == 300.0
        assert limits["probing"] is None

    def test_preset_names_cover_protocol(self):
        names = list(scheme_presets())
        assert "primitive" in names and "full" in names
        assert {"monotone-scaling", "monotone-tuning", "single-filtering"} <= set(names)


class TestConfigValidation:
    def test_validation_stage_must_be_last(self):
        with pytest.raises(ValueError):
            SchemeConfig(stages=[ValidationStage(), ProbingStage()], validation=ValidationConfig())

    def test_validation_stage_needs_config(self):
        with pytest.raises(ValueError):
            SchemeConfig(stages=[ProbingStage(), ValidationStage()])

    def test_validation_stage_at_most_once(self):
        with pytest.raises(ValueError):
            SchemeConfig(
                stages=[ProbingStage(), ValidationStage(), ValidationStage()],
                validation=ValidationConfig(),
            )


class TestRun:
    def test_primitive_selects_argmin_of_probing(self, registry):
        data = make_dataset("madelon_like", 90, 5, 1)
        cfg = presets_for_tests(3)["primitive"]
        report = run(data, cfg)
        assert report.ok and report.selection_basis == "any-stage-best"
        # independent loop over the base learners
        expected_key, expected_mean = None, float("inf")
        for lid in registry.base_learner_ids():
            s = mccv_score(Candidate(learner=lid), data, replace(fast_eval(3), seed=3), registry)
            if s.ok and s.mean < expected_mean:
                expected_key, expected_mean = candidate_key(Candidate(learner=lid)), s.mean
        assert report.best_key == expected_key
        assert report.best_score == pytest.approx(expected_mean)

    def test_zero_global_timeout_fails_cleanly(self):
        data = make_dataset("separable", 40, 3, 0)
        cfg = replace(presets_for_tests(1)["primitive"], global_timeout=0.0)
        report = run(data, cfg)
        assert not report.ok
        assert report.failure == "no_model_found"
        assert report.best_key is None
        assert not report.reproducible  # the deadline cut every stage

    def test_data_without_rows_find_no_model(self):
        data = make_numeric_dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), class_names=["a", "b"])
        report = run(data, presets_for_tests(1)["primitive"])
        assert report.failure == "no_model_found"
        assert [r["status"] for r in report.journal] == ["failed_error"] * 5

    def test_evaluation_timeouts_make_a_run_not_reproducible(self):
        data = make_dataset("separable", 40, 3, 0)
        cfg = presets_for_tests(1)["primitive"]
        report = run(data, replace(cfg, eval=replace(cfg.eval, per_eval_timeout=1e-9)))
        assert not any(t["deadline_hit"] for t in report.stage_traces)
        assert {r["status"] for r in report.journal} == {"failed_timeout"}
        assert not report.reproducible and report.to_json_dict()["reproducible"] is False

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "workers"])
    def test_lapsed_tuning_budget_makes_a_run_not_reproducible(self, registry, monkeypatch, workers):
        # the entry's budget starts at its first sample, which outlasts it
        # without timing out. In process, the later samples go unscored; on
        # two workers, the first two go out at once and the third never does
        monkeypatch.setattr(evaluation, "WORKERS", workers)
        monkeypatch.setattr(evaluation, "POOL_CELLS", 1)
        spec = replace(registry.learners["decision_tree"], id="slow", fit=_slow_tuned_fit)
        monkeypatch.setattr(orchestrator, "_registry", lambda: replace(registry, learners={"slow": spec}))
        cfg = replace(
            presets_for_tests(4)["primitive"],
            stages=[ProbingStage(), TuningStage(max_evals=3, per_candidate_seconds=SLOW_SECONDS / 2)],
        )
        report = run(make_dataset("separable", 40, 3, 0), cfg)
        # fewer tuning records than its three samples
        assert [(r["stage"], r["status"]) for r in report.journal] == [("probing", "ok")] + [("tuning", "ok")] * workers
        assert not any(t["deadline_hit"] for t in report.stage_traces)
        assert not report.reproducible

    def test_reports_are_reproducible(self):
        data = make_dataset("scale_sensitive", 80, 4, 2)
        cfg = presets_for_tests(5)["monotone-scaling"]
        a = run(data, cfg)
        b = run(data, cfg)
        assert a.best_key == b.best_key
        strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_ms"} for r in recs]
        assert strip(a.journal) == strip(b.journal)
        assert a.reproducible and b.reproducible  # no deadline fired

    def test_best_candidate_exists_in_journal_ok(self):
        data = make_dataset("separable", 50, 3, 3)
        report = run(data, presets_for_tests(7)["primitive"])
        rows = [r for r in report.journal if r["candidate_key"] == report.best_key]
        assert rows and all(r["status"] == "ok" for r in rows)

    def test_stage_trace_schema(self):
        data = make_dataset("separable", 50, 3, 3)
        report = run(data, presets_for_tests(7)["primitive"])
        trace = report.stage_traces[0]
        for field in ("stage_id", "started", "ended", "evaluations", "added", "removed", "deadline_hit"):
            assert field in trace
        assert trace["stage_id"] == "probing"
        assert trace["evaluations"] == 5

    def test_report_json_serializable(self):
        data = make_dataset("separable", 50, 3, 3)
        report = run(data, presets_for_tests(7)["primitive"])
        text = json.dumps({**report.to_json_dict(), "journal": report.journal})
        assert json.loads(text)["schema_version"] == "run-report/1"


class TestHoldoutHygiene:
    def test_holdout_rows_never_trained_on(self, registry, monkeypatch):
        data = make_dataset("separable", 100, 3, 4)
        # unique row ids in column 0 for bookkeeping
        x = data.instances.copy()
        x[:, 0] = np.arange(100.0)
        from conftest import make_numeric_dataset

        tagged = make_numeric_dataset(x, data.labels)
        cfg = replace(
            presets_for_tests(9)["single-validation"],
            validation=ValidationConfig(m=3, holdout_fraction=0.2),
        )
        seen_train_ids = []

        def record(component, stack):
            seen_train_ids.extend(set(rows[:, 0]) for rows in stack)

        monkeypatch.setattr(orchestrator, "_registry", lambda: spy_registry(registry, record))
        run(tagged, cfg)
        optimization, holdout = holdout_split(tagged, cfg)
        holdout_ids = set(holdout.instances[:, 0])
        assert holdout_ids and seen_train_ids
        for ids in seen_train_ids:
            assert ids.isdisjoint(holdout_ids)

    def test_validation_changes_selection_basis_not_internal_scores(self):
        data = make_dataset("madelon_like", 90, 5, 5)
        with_val = replace(
            presets_for_tests(11)["single-validation"],
            validation=ValidationConfig(m=3, holdout_fraction=0.2),
        )
        without_val = SchemeConfig(
            stages=[ProbingStage()],
            global_timeout=with_val.global_timeout,
            eval=with_val.eval,
            validation=with_val.validation,  # carving stays, stage goes
            seed=with_val.seed,
            name="probing-only",
        )
        a = run(data, with_val)
        b = run(data, without_val)
        assert a.selection_basis == "validation-final"
        assert b.selection_basis == "any-stage-best"
        internal = lambda rep: {
            r["candidate_key"]: r["mean"] for r in rep.journal if not r["auxiliary"]
        }
        assert internal(a) == internal(b)
        assert a.internal_best_key == b.internal_best_key

    def test_holdout_split_deterministic_and_disjoint(self):
        data = make_dataset("separable", 60, 3, 6)
        cfg = presets_for_tests(13)["full"]
        opt1, hold1 = holdout_split(data, cfg)
        opt2, hold2 = holdout_split(data, cfg)
        assert opt1.equals(opt2) and hold1.equals(hold2)
        assert opt1.n_rows + hold1.n_rows == 60
        assert hold1.n_rows == 6  # 10% holdout


    def test_singleton_class_stays_in_optimization_set(self):
        # 20/20/1 rows over three classes: the lone row cannot be split
        data = make_numeric_dataset(np.random.default_rng(4).normal(size=(41, 3)), [0] * 20 + [1] * 20 + [2])
        optimization, holdout = holdout_split(data, presets_for_tests(13)["full"])
        assert 2 in optimization.labels and 2 not in holdout.labels
        report = run(data, presets_for_tests(13)["primitive"])
        assert report.ok


    @pytest.mark.parametrize("preset", ["full", "single-validation"])
    def test_one_class_data_gets_a_holdout(self, preset):
        # one class cannot be split stratified: its holdout is an unstratified split
        x = np.column_stack([np.arange(30.0), np.random.default_rng(5).normal(size=(30, 2))])
        data = make_numeric_dataset(x, [0] * 30, class_names=["only"])
        cfg = scheme_presets(seed=1)[preset]
        optimization, holdout = holdout_split(data, cfg)
        assert holdout.n_rows == 3 and optimization.n_rows == 27
        assert sorted(np.concatenate([optimization.instances[:, 0], holdout.instances[:, 0]])) == list(range(30))
        report = run(data, cfg)
        assert report.ok and report.best_score == 0.0 and report.holdout_rows == 3

class TestBudget:
    def test_budget_enforced_with_partial_results(self):
        data = make_dataset("madelon_like", 2000, 30, 7)
        cfg = replace(presets_for_tests(15)["full"], global_timeout=6.0)
        t0 = time.monotonic()
        report = run(data, cfg)
        elapsed = time.monotonic() - t0
        assert elapsed <= 6.0 + cfg.eval.per_eval_timeout
        probing_ok = [
            r for r in report.journal if r["stage"] == "probing" and r["status"] == "ok"
        ]
        if probing_ok:
            assert report.ok

    def test_monotone_chain_on_one_dataset(self):
        data = make_dataset("scale_sensitive", 70, 4, 8)
        names = ["primitive", "monotone-scaling", "monotone-filtering"]
        best = []
        for name in names:
            cfg = presets_for_tests(17)[name]
            report = run(data, cfg)
            best.append(report.internal_best_score)
        assert best[1] <= best[0] + 1e-12
        assert best[2] <= best[1] + 1e-12

    def test_full_scheme_never_beats_probing_on_internal_best(self):
        # superset argument needs both runs on the same optimization data,
        # so the probing-only config keeps the full preset's holdout carving
        data = make_dataset("madelon_like", 200, 8, 9)
        full = presets_for_tests(19)["full"]
        full = replace(
            full,
            stages=[
                replace(s, max_evals=4) if s.stage_id == "tuning" else s
                for s in full.stages
            ],
        )
        probing_only = SchemeConfig(
            stages=[ProbingStage()],
            global_timeout=full.global_timeout,
            eval=full.eval,
            validation=full.validation,
            seed=full.seed,
            name="probing-with-carving",
        )
        full_report = run(data, full)
        probe_report = run(data, probing_only)
        assert full_report.internal_best_score <= probe_report.internal_best_score + 1e-12


def _exit_on_negative_fit(X, y, n_classes, params, seed=0, deadline=None):
    """Gaussian NB in the main process; kills a worker that gets negative
    values, which on positive data only standardize yields."""
    if multiprocessing.parent_process() is not None and (np.asarray(X) < 0).any():
        os._exit(3)
    return fit_gaussian_nb(X, y, n_classes, params, seed=seed, deadline=deadline)


def _positive_madelon():
    """``madelon_like`` shifted to positive values, with one noise column
    1000x larger, so that every scaler improves knn and the scaling stage
    expands all of them."""
    d = make_dataset("madelon_like", 40, 4, 7, informative=2)
    x = d.instances - d.instances.min(axis=0) + 1.0
    x[:, 3] *= 1000.0
    return make_numeric_dataset(x, d.labels)


def _spy_on_tasks(monkeypatch) -> list:
    """The keys of each non-empty task ``_Workers.score`` draws, from now on."""
    tasks = []
    score = evaluation._Workers.score

    def spy(self, stream):
        def recorded():
            for task in stream:
                if task:
                    tasks.append([candidate_key(candidate) for _, candidate, _ in task])
                yield task

        return score(self, recorded())

    monkeypatch.setattr(evaluation._Workers, "score", spy)
    return tasks


class TestWorkers:
    """Meta and tuning batches run on forked workers; none outlives its run."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(evaluation, "WORKERS", 2)

    def test_learner_killing_its_worker_ends_failed_error(self, registry, monkeypatch):
        monkeypatch.setattr(orchestrator, "_registry", lambda: exiting_registry(registry))
        monkeypatch.setattr(evaluation, "POOL_CELLS", 3000)  # probing's batch holds 2,520 cells, meta's 5,040
        cfg = presets_for_tests(2)["single-meta"]
        report = run(make_dataset("separable", 40, 3, 0), cfg)
        assert report.ok and multiprocessing.active_children() == []
        status = {r["candidate_key"]: r["status"] for r in report.journal}
        assert status["-|-|exits|default"] == "ok"  # probing scored it in this process
        assert status["-|-|bagging{default}(exits)|default"] == "failed_error"
        assert status["-|-|bagging{default}(knn)|default"] == "ok"

    def test_member_killing_its_worker_fails_alone(self, registry, monkeypatch):
        spec = LearnerSpec(id="exits", default_params={}, param_space={}, is_meta=False, fit=_exit_on_negative_fit)
        monkeypatch.setattr(orchestrator, "_registry", lambda: replace(registry, learners={**registry.learners, "exits": spec}))
        cfg = replace(presets_for_tests(7)["monotone-meta"], stages=[ProbingStage(), ScalingStage(), MetaStage()])
        tasks = _spy_on_tasks(monkeypatch)
        statuses = []
        for workers in (1, 2):  # one worker scores everything in this process
            monkeypatch.setattr(evaluation, "WORKERS", workers)
            report = run(_positive_madelon(), cfg)
            assert multiprocessing.active_children() == []
            statuses.append({r["candidate_key"]: (r["status"], r["per_fold"]) for r in report.journal})
        # each meta-learner's four scalings of ``exits`` went out as one stack
        assert sum(len(task) == 4 and "(exits)" in task[0] for task in tasks) == 2
        killed = {key for key in statuses[0] if key.startswith("standardize|") and "(exits)" in key}
        assert len(killed) == 2
        assert {key for key, (status, _) in statuses[1].items() if status != "ok"} == killed
        assert {k: v for k, v in statuses[1].items() if k not in killed} == {
            k: v for k, v in statuses[0].items() if k not in killed
        }

    def test_meta_batch_goes_out_in_stacks(self, monkeypatch):
        tasks = _spy_on_tasks(monkeypatch)
        cfg = presets_for_tests(7)["full"]
        cfg = replace(cfg, stages=[replace(s, max_evals=1) if s.stage_id == "tuning" else s for s in cfg.stages])
        journals = []
        for workers in (1, 2):
            monkeypatch.setattr(evaluation, "WORKERS", workers)
            report = run(_positive_madelon(), cfg)
            journals.append([{k: v for k, v in r.items() if k != "wall_ms"} for r in report.journal])
        assert journals[0] == journals[1]
        meta = {r["candidate_key"] for r in journals[1] if r["stage"] == "meta"}
        meta_tasks = [task for task in tasks if task[0] in meta]
        assert 0 < len(meta_tasks) < len(meta)
        assert sum(len(task) for task in meta_tasks) == len(meta)

    def test_run_that_raises_stops_its_workers(self, monkeypatch):
        monkeypatch.setattr(evaluation, "POOL_CELLS", 3000)  # below the meta batch's 4,200 cells

        class Boom:
            stage_id = "boom"
            time_limit = None

            def run(self, pool, ctx):
                assert ctx.evaluator._workers is not None  # the meta stage forked them
                raise RuntimeError("boom")

        cfg = replace(presets_for_tests(2)["single-meta"], stages=[ProbingStage(), MetaStage(), Boom()])
        with pytest.raises(RuntimeError, match="boom"):
            run(make_dataset("separable", 40, 3, 0), cfg)
        assert multiprocessing.active_children() == []

    def test_presets_without_meta_or_tuning_fork_nothing(self, monkeypatch):
        def no_fork(*args):
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(evaluation, "_Workers", no_fork)
        assert run(make_dataset("scale_sensitive", 60, 4, 1), presets_for_tests(1)["monotone-filtering"]).ok

    def test_phase_batches_fork_workers_once_their_cells_reach_pool_cells(self, monkeypatch):
        forks = []

        class Counted(evaluation._Workers):
            def __init__(self, *args):
                forks.append(args)
                super().__init__(*args)

        tasks = _spy_on_tasks(monkeypatch)
        monkeypatch.setattr(evaluation, "_Workers", Counted)
        cfg = presets_for_tests(1)["monotone-filtering"]
        assert run(make_dataset("scale_sensitive", 40, 4, 1), cfg).ok
        assert forks == [] and tasks == []
        # 300 rows: each probing key holds 5 x 210 x 4 = 4,200 cells, the batch 21,000
        report = run(make_dataset("scale_sensitive", 300, 4, 1), cfg)
        assert report.ok and len(forks) == 1 and multiprocessing.active_children() == []
        stage_of = {r["candidate_key"]: r["stage"] for r in report.journal}
        assert {stage_of[key] for key in tasks[0]} == {"probing"}
        assert {stage_of[key] for task in tasks for key in task} == {"probing", "scaling", "filtering"}

    def test_journal_independent_of_worker_count(self, monkeypatch):
        data = make_dataset("madelon_like", 40, 4, 6)
        cfg = replace(presets_for_tests(6)["single-meta"], stages=[ProbingStage(), MetaStage(), TuningStage(max_evals=2)])
        journals = []
        for workers in (1, 2):
            monkeypatch.setattr(evaluation, "WORKERS", workers)
            journals.append([{k: v for k, v in r.items() if k != "wall_ms"} for r in run(data, cfg).journal])
        assert journals[0] == journals[1]
        assert {r["stage"] for r in journals[0]} >= {"meta", "tuning"}
