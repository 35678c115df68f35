import multiprocessing
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagedml.components.learners import fit_gaussian_nb
from stagedml.components.registry import LearnerSpec, Registry
from stagedml.data import FeatureSet
from stagedml import evaluation
from stagedml.evaluation import Candidate, EvalConfig, Evaluator, Score, candidate_key
from stagedml.stages import (
    CandidatePool,
    FilteringStage,
    MetaStage,
    ProbingStage,
    ScalingStage,
    ScoredCandidate,
    StageContext,
    TuningStage,
    ValidationConfig,
    ValidationStage,
    compute_feature_set,
    feature_curve,
    final_score,
    omega,
    prefix_schedule,
    scalers_to_expand,
    select_best_prefix,
    tau,
)
from stagedml.synth import make_dataset
from stagedml.timing import Deadline

from conftest import make_numeric_dataset


def ok_score(mean, repeats=5):
    return Score(mean=mean, std=0.0, per_fold=tuple([mean] * repeats), status="ok")


def entry(mean, stage="probing", **cand):
    c = Candidate(**cand)
    return ScoredCandidate(c, ok_score(mean), stage)


class StubEvaluator:
    """Scores candidates from a fixed table; unknown keys yield 0.5."""

    def __init__(self, table=None, offset=0.0):
        self.table = dict(table or {})
        self.offset = offset
        self.calls = []
        self.cfg = EvalConfig(seed=0)

    def evaluate(self, candidate, stage, cfg=None, deadline=None):
        key = candidate_key(candidate)
        self.calls.append((key, stage))
        return ok_score(self.table.get(key, 0.5) + self.offset)

    def evaluate_many(self, candidates, stage, deadline=Deadline(), budgets=None):
        """None once ``deadline`` or the candidate's own budget has lapsed,
        else ``evaluate``."""
        scores = []
        for i, candidate in enumerate(candidates):
            own = budgets[i].start() if budgets is not None else deadline
            lapsed = deadline.expired() or own.expired()
            scores.append(None if lapsed else self.evaluate(candidate, stage, deadline=own))
        return scores


def ctx_for(evaluator, data, registry, **kw):
    return StageContext(evaluator=evaluator, registry=registry, data=data, **kw)


class TestValidationMath:
    def test_tau_points(self):
        assert tau(10000, 10000) == 1.0
        assert tau(0, 10000) == 0.0
        assert tau(100, 10000) == 0.01
        assert tau(20000, 10000) == 1.0

    def test_omega_reference_point(self):
        # 500 instances, 100 held out: 0.01 + 0.2 * 0.99 = 0.208
        assert omega(100, 500, 10000) == pytest.approx(0.208, abs=1e-12)

    def test_omega_extremes(self):
        assert omega(0, 500, 10000) == 0.0
        assert omega(10000, 10000, 10000) == 1.0

    def test_final_score_endpoints(self):
        assert final_score(0.3, 0.9, 0.0) == 0.3
        assert final_score(0.3, 0.9, 1.0) == 0.9
        assert final_score(0.20, 0.25, 0.208) == pytest.approx(0.2104, abs=1e-12)

    @given(
        x=st.floats(min_value=0, max_value=1),
        w=st.floats(min_value=0, max_value=1),
    )
    def test_final_score_consensus_fixpoint(self, x, w):
        assert final_score(x, x, w) == pytest.approx(x, abs=1e-12)

    @given(
        total=st.integers(min_value=1, max_value=50000),
        n_bar=st.integers(min_value=1, max_value=50000),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_omega_monotone_in_n(self, total, n_bar, data):
        n1 = data.draw(st.integers(min_value=0, max_value=total))
        n2 = data.draw(st.integers(min_value=n1, max_value=total))
        assert omega(n1, total, n_bar) <= omega(n2, total, n_bar) + 1e-12
        if total >= n_bar:
            assert omega(total, total, n_bar) == 1.0


class TestCandidatePool:
    def test_dedup_by_key(self):
        pool = CandidatePool()
        assert pool.add(entry(0.2, learner="knn"))
        assert not pool.add(entry(0.3, learner="knn"))
        assert len(pool) == 1

    def test_rejects_failed_scores(self):
        pool = CandidatePool()
        bad = ScoredCandidate(Candidate(learner="knn"), Score(None, None, (), "failed_error"), "probing")
        with pytest.raises(ValueError):
            pool.add(bad)

    def test_sorted_by_score_stable(self):
        pool = CandidatePool()
        pool.add(entry(0.3, learner="knn"))
        pool.add(entry(0.1, learner="gaussian_nb"))
        pool.add(entry(0.3, learner="decision_tree"))
        keys = [e.key for e in pool.sorted_by_score()]
        assert keys[0] == "-|-|gaussian_nb|default"
        assert keys[1] == "-|-|knn|default"  # tie keeps insertion order


class TestProbing:
    def test_adds_every_base_learner(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        pool = ProbingStage().run(CandidatePool(), ctx_for(stub, data, registry))
        assert len(pool) == 5
        assert {e.candidate.learner for e in pool} == set(registry.base_learner_ids())
        assert all(e.candidate.scaler is None and e.candidate.features is None for e in pool)

    def test_dedup_against_existing_pool(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        pool = CandidatePool([entry(0.2, learner="knn")])
        ctx = ctx_for(stub, data, registry)
        ProbingStage().run(pool, ctx)
        assert len(pool) == 5
        assert sum(1 for key, _ in stub.calls if key == "-|-|knn|default") == 0
        assert ctx.trace["added"] == pool.keys()[1:]

    def test_zero_deadline_no_work(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        pool = ProbingStage().run(CandidatePool(), ctx_for(stub, data, registry, deadline=Deadline(0.0)))
        assert len(pool) == 0 and stub.calls == []

    def test_failed_learner_excluded(self, registry):
        data = make_dataset("separable", 40, 3, 0)

        class Failing(StubEvaluator):
            def evaluate(self, candidate, stage, cfg=None, deadline=None):
                if candidate.learner == "decision_tree":
                    self.calls.append((candidate_key(candidate), stage))
                    return Score(None, None, (), "failed_timeout")
                return super().evaluate(candidate, stage, cfg, deadline)

        stub = Failing()
        pool = ProbingStage().run(CandidatePool(), ctx_for(stub, data, registry))
        assert len(pool) == 4
        assert "-|-|decision_tree|default" not in pool

    def test_deadline_lapsing_in_last_evaluation_is_recorded(self, registry):
        data = make_dataset("separable", 40, 3, 0)

        class WaitsOut(StubEvaluator):
            # the last base learner's scoring runs past the stage deadline
            def evaluate(self, candidate, stage, cfg=None, deadline=None):
                if candidate.learner == "random_forest":
                    while not deadline.expired():
                        time.sleep(0.005)
                    self.calls.append((candidate_key(candidate), stage))
                    return Score(None, None, (), "failed_timeout")
                return super().evaluate(candidate, stage, cfg, deadline)

        ctx = ctx_for(WaitsOut(), data, registry, deadline=Deadline(0.3))
        pool = ProbingStage().run(CandidatePool(), ctx)
        assert registry.base_learner_ids()[-1] == "random_forest"
        assert len(pool) == 4 and ctx.trace["deadline_hit"] is True

    def test_rerun_adds_no_duplicates(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        first = ctx_for(stub, data, registry)
        pool = ProbingStage().run(CandidatePool(), first)
        n = len(pool)
        again = ctx_for(stub, data, registry)
        ProbingStage().run(pool, again)
        assert len(pool) == n
        assert first.trace["added"] == pool.keys() and again.trace["added"] == []


class TestScaling:
    def test_expansion_rule_pure(self):
        baselines = {"-|-|knn|default": 0.40, "-|-|gaussian_nb|default": 0.30}
        scaled = {
            ("standardize", "-|-|knn|default"): 0.20,
            ("standardize", "-|-|gaussian_nb|default"): 0.30,
            ("minmax", "-|-|knn|default"): 0.40,
            ("minmax", "-|-|gaussian_nb|default"): 0.31,
        }
        assert scalers_to_expand(baselines, scaled) == ["standardize"]

    def test_expansion_invariant_to_score_shifts(self):
        baselines = {"p": 0.40}
        scaled = {("standardize", "p"): 0.35, ("minmax", "p"): 0.45}
        base = scalers_to_expand(baselines, scaled)
        for shift in (-0.2, 0.1, 0.33):
            shifted_b = {k: v + shift for k, v in baselines.items()}
            shifted_s = {k: v + shift for k, v in scaled.items()}
            assert scalers_to_expand(shifted_b, shifted_s) == base

    def test_stage_counts_with_stub(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()  # flat scores: no strict improvement anywhere
        pool = ProbingStage().run(CandidatePool(), ctx_for(stub, data, registry))
        calls_before = len(stub.calls)
        ctx = ctx_for(stub, data, registry)
        ScalingStage().run(pool, ctx)
        # 3 scalers x 2 pilots, no expansion under flat scores
        assert len(stub.calls) - calls_before == 6
        assert ctx.trace["expanded_scalers"] == []

    def test_stage_expands_on_improvement(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        table = {"standardize|-|knn|default": 0.1}  # all others 0.5
        stub = StubEvaluator(table)
        pool = ProbingStage().run(CandidatePool(), ctx_for(stub, data, registry))
        ctx = ctx_for(stub, data, registry)
        ScalingStage().run(pool, ctx)
        assert ctx.trace["expanded_scalers"] == ["standardize"]
        expanded_keys = {k for k, _ in stub.calls if k.startswith("standardize|")}
        # pilots (knn, gaussian_nb) plus the 3 non-pilot learners
        assert expanded_keys == {
            "standardize|-|knn|default",
            "standardize|-|gaussian_nb|default",
            "standardize|-|decision_tree|default",
            "standardize|-|logistic_regression|default",
            "standardize|-|random_forest|default",
        }

    def test_pilots_evaluated_on_raw_data_when_pool_lacks_them(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        ctx = ctx_for(stub, data, registry)
        pool = ScalingStage().run(CandidatePool(), ctx)
        raw_pilot_calls = [k for k, _ in stub.calls if k in ("-|-|knn|default", "-|-|gaussian_nb|default")]
        assert len(raw_pilot_calls) == 2
        assert "-|-|knn|default" in pool

    def test_real_expansion_on_scale_sensitive_data(self, registry):
        data = make_dataset("scale_sensitive", 120, 5, 0)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=3))
        pool = ProbingStage().run(CandidatePool(), ctx_for(ev, data, registry))
        ctx = ctx_for(ev, data, registry)
        ScalingStage().run(pool, ctx)
        assert "standardize" in ctx.trace["expanded_scalers"]


class TestFeatureCurve:
    def test_reference_walk(self):
        # argmin-with-smaller-l-tie-break oracle over the listed points
        table = {1: 0.30, 2: 0.25, 4: 0.25, 8: 0.26, 16: 0.27, 32: 0.10}
        points = feature_curve(table.__getitem__, [1, 2, 4, 8, 16, 32])
        assert points == [(1, 0.30), (2, 0.25), (4, 0.25), (8, 0.26), (16, 0.27)]
        best = select_best_prefix([("f", list(range(32)), points)])
        assert best[1] == 2  # smaller l wins the 0.25 tie

    def test_patience_resets_on_recovery(self):
        table = {1: 0.30, 2: 0.31, 4: 0.25, 8: 0.40, 16: 0.41}
        points = feature_curve(table.__getitem__, [1, 2, 4, 8, 16])
        assert [l for l, _ in points] == [1, 2, 4, 8, 16]

    def test_schedule_geometric_capped(self):
        assert prefix_schedule(1) == [1]
        assert prefix_schedule(6) == [1, 2, 4, 6]
        assert prefix_schedule(8) == [1, 2, 4, 8]
        assert prefix_schedule(100) == [1, 2, 4, 8, 16, 32, 64, 100]

    def test_tie_prefers_earlier_filter(self):
        points = [(1, 0.2)]
        best = select_best_prefix([
            ("first", [0], points),
            ("second", [0], points),
        ])
        assert best[4] == "first"

    def test_single_informative_feature_selected(self, registry):
        # y determined by column 0 alone; exhaustive-prefix oracle agrees
        rng = np.random.default_rng(1)
        x = rng.normal(size=(120, 6))
        y = (x[:, 0] > 0).astype(int)
        data = make_numeric_dataset(x, y)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=5))
        fs, curves = compute_feature_set(ctx_for(ev, data, registry))
        assert list(fs) == [0]

    def test_noise_only_ties_give_smallest_prefix(self, registry):
        data = make_numeric_dataset(np.ones((40, 4)), [0, 1] * 20)
        stub = StubEvaluator()  # every prefix scores identically
        fs, _ = compute_feature_set(ctx_for(stub, data, registry))
        assert len(fs) == 1

    def test_nonempty_and_bounded(self, registry):
        data = make_dataset("madelon_like", 80, 9, 2)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=6))
        fs, _ = compute_feature_set(ctx_for(ev, data, registry))
        assert 1 <= len(fs) <= data.n_columns


class TestFilteringStage:
    def test_full_feature_set_leaves_pool_unchanged(self, registry):
        data = make_numeric_dataset(np.ones((40, 3)), [0, 1] * 20)

        class FullWidth(StubEvaluator):
            # longer prefixes score strictly better, so the curve walks
            # out to the full column count
            def evaluate(self, candidate, stage, cfg=None, deadline=None):
                self.calls.append((candidate_key(candidate), stage))
                if candidate.features is None:
                    return ok_score(0.5)
                return ok_score(0.5 - 0.01 * len(candidate.features.indices))

        stub = FullWidth()
        ctx = ctx_for(stub, data, registry)
        pool = CandidatePool([entry(0.2, learner="knn")])
        FilteringStage().run(pool, ctx)
        assert ctx.trace["feature_set"] == [0, 1, 2]
        assert pool.keys() == ["-|-|knn|default"]  # twin == original, dedup

    def test_twins_added_best_first_under_deadline(self, registry):
        data = make_numeric_dataset(np.arange(120.0).reshape(40, 3), [0, 1] * 20)

        class CountingStub(StubEvaluator):
            def __init__(self, allowed):
                super().__init__()
                self.allowed = allowed
                self.full_evals = 0

            def evaluate(self, candidate, stage, cfg=None, deadline=None):
                key = candidate_key(candidate)
                self.calls.append((key, stage))
                if cfg is None and candidate.features is not None:
                    self.full_evals += 1
                    if self.full_evals > self.allowed:
                        return Score(None, None, (), "failed_timeout")
                return ok_score(0.4)

        stub = CountingStub(allowed=2)
        pool = CandidatePool([
            entry(0.3, learner="knn"),
            entry(0.1, learner="gaussian_nb"),
            entry(0.2, learner="decision_tree"),
        ])
        ctx = ctx_for(stub, data, registry)
        FilteringStage().run(pool, ctx)
        twins = [e for e in pool if e.candidate.features is not None]
        assert {t.candidate.learner for t in twins} == {"gaussian_nb", "decision_tree"}

    def test_curve_cut_off_with_empty_pool_sets_deadline_hit(self, registry):
        # one filter, and a deadline that lapses after the curve's first
        # point: only the curve's own check sees it, no later check runs
        data = make_numeric_dataset(np.arange(120.0).reshape(40, 3), [0, 1] * 20)
        one_filter = replace(registry, filters={"variance": registry.filters["variance"]})
        stub = StubEvaluator()

        class LapsesAfterFirstCall:
            def expired(self):
                return bool(stub.calls)

        ctx = ctx_for(stub, data, one_filter, deadline=LapsesAfterFirstCall())
        FilteringStage().run(CandidatePool(), ctx)
        assert len(stub.calls) == 1 and len(ctx.trace["curves"][0]["points"]) == 1
        assert ctx.trace.get("deadline_hit") is True

    def test_madelon_twin_quality(self, registry):
        data = make_dataset("madelon_like", 300, 40, 0)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=7))
        pool = ProbingStage().run(CandidatePool(), ctx_for(ev, data, registry))
        best_before = pool.best()
        ctx = ctx_for(ev, data, registry)
        FilteringStage().run(pool, ctx)
        twin = pool.get(candidate_key(best_before.candidate.with_features(
            FeatureSet(ctx.trace["feature_set"])
        )))
        assert twin is not None
        assert twin.score.mean <= best_before.score.mean + 0.02
        assert len(ctx.trace["feature_set"]) <= 20


class TestMetaStage:
    def test_counts_two_metas_per_candidate(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        pool = CandidatePool([entry(0.2, learner="knn")])
        MetaStage().run(pool, ctx_for(stub, data, registry))
        assert len(stub.calls) == 2
        metas = {e.candidate.meta for e in pool if e.candidate.meta}
        assert metas == {"bagging", "adaboost"}

    def test_meta_candidates_skipped(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        pool = CandidatePool([entry(0.2, learner="knn", meta="bagging")])
        MetaStage().run(pool, ctx_for(stub, data, registry))
        assert stub.calls == []

    def test_feature_slots_untouched(self, registry):
        data = make_dataset("separable", 40, 4, 0)
        stub = StubEvaluator()
        pool = CandidatePool([
            entry(0.2, learner="knn", scaler="standardize", features=FeatureSet([0, 2])),
        ])
        MetaStage().run(pool, ctx_for(stub, data, registry))
        wrapped = [e for e in pool if e.candidate.meta]
        assert all(e.candidate.scaler == "standardize" for e in wrapped)
        assert all(e.candidate.features == FeatureSet([0, 2]) for e in wrapped)

    def test_bagging_stabilizes_high_variance_learner(self, registry):
        data = make_dataset("madelon_like", 150, 8, 4)
        wins = 0
        for seed in range(5):
            ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=seed))
            tree = Candidate(learner="decision_tree")
            base = ev.evaluate(tree, stage="probing")
            wrapped = ev.evaluate(tree.with_meta("bagging"), stage="meta")
            if wrapped.mean <= base.mean + 0.02:
                wins += 1
        assert wins >= 4


class TestTuningStage:
    def test_knn_grid_enumerated_minus_default(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        pool = CandidatePool([entry(0.4, learner="knn")])
        TuningStage().run(pool, ctx_for(stub, data, registry))
        tuned_calls = [k for k, s in stub.calls if s == "tuning"]
        assert len(tuned_calls) == 6  # grid of 7 minus the default k=5
        assert "-|-|knn|k=5" not in tuned_calls

    def test_zero_budget_no_changes(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        pool = CandidatePool([entry(0.4, learner="knn")])
        TuningStage().run(pool, ctx_for(stub, data, registry, deadline=Deadline(0.0)))
        assert stub.calls == []
        assert len(pool) == 1

    def test_only_improving_samples_added(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        table = {"-|-|knn|k=1": 0.1, "-|-|knn|k=3": 0.9}
        stub = StubEvaluator(table)
        pool = CandidatePool([entry(0.4, learner="knn")])
        TuningStage().run(pool, ctx_for(stub, data, registry))
        assert "-|-|knn|k=1" in pool
        assert "-|-|knn|k=3" not in pool
        assert "-|-|knn|default" in pool  # incumbent retained

    def test_gaussian_nb_has_nothing_to_tune(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        pool = CandidatePool([entry(0.4, learner="gaussian_nb")])
        TuningStage().run(pool, ctx_for(stub, data, registry))
        assert stub.calls == []

    def test_random_search_improves_bad_learning_rate(self, registry):
        # grid-sweep oracle built the expectation: a tiny learning rate
        # underfits a separable set, and sampled rates recover it
        data = make_dataset("separable", 80, 3, 1)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=2))
        bad = Candidate(
            learner="logistic_regression",
            params={"learning_rate": 0.0001, "epochs": 50, "l2": 1e-6},
        )
        bad_score = ev.evaluate(bad, stage="probing")
        pool = CandidatePool([ScoredCandidate(bad, bad_score, "probing")])
        ctx = ctx_for(ev, data, registry, seed=9)
        TuningStage(max_evals=30).run(pool, ctx)
        assert pool.best().score.mean < bad_score.mean

    def test_max_evals_respected_for_random_spaces(self, registry):
        data = make_dataset("separable", 40, 3, 0)
        stub = StubEvaluator()
        pool = CandidatePool([entry(0.4, learner="logistic_regression")])
        TuningStage(max_evals=5).run(pool, ctx_for(stub, data, registry))
        assert len(stub.calls) <= 5


class TestValidationStage:
    def _pool(self, means):
        pool = CandidatePool()
        learners = ["knn", "gaussian_nb", "decision_tree", "logistic_regression", "random_forest"]
        for mean, lid in zip(means, learners):
            pool.add(entry(mean, learner=lid))
        return pool

    def test_m1_keeps_internal_best(self, registry):
        data = make_dataset("separable", 60, 3, 2)
        holdout = make_dataset("separable", 30, 3, 3)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=1))
        pool = self._pool([0.3, 0.1, 0.4])
        ctx = ctx_for(ev, data, registry, holdout=holdout, validation=ValidationConfig(m=1))
        out = ValidationStage().run(pool, ctx)
        assert len(out) == 1
        assert out.entries()[0].candidate.learner == "gaussian_nb"

    def test_equal_internal_scores_ranked_by_holdout(self, registry):
        data = make_dataset("separable", 60, 3, 2)
        holdout = make_dataset("noise_only", 40, 3, 4)  # nothing fits perfectly
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=1))
        pool = self._pool([0.2, 0.2])
        ctx = ctx_for(ev, data, registry, holdout=holdout, validation=ValidationConfig(m=2))
        out = ValidationStage().run(pool, ctx)
        entries = out.entries()
        assert len(entries) == 2
        assert entries[0].phi_validate <= entries[1].phi_validate

    def test_nbar_one_makes_ranking_pure_holdout(self, registry):
        data = make_dataset("separable", 60, 3, 2)
        holdout = make_dataset("noise_only", 24, 3, 4)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=1))
        pool = self._pool([0.10, 0.11])
        ctx = ctx_for(ev, data, registry, holdout=holdout, validation=ValidationConfig(n_bar=1, m=2))
        out = ValidationStage().run(pool, ctx)
        entries = out.entries()
        assert ctx.trace["omega"] == 1.0
        assert [e.final_score for e in entries] == [e.phi_validate for e in entries]

    def test_empty_holdout_skips_with_warning(self, registry):
        data = make_dataset("separable", 60, 3, 2)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=1))
        pool = self._pool([0.3])
        ctx = ctx_for(ev, data, registry, holdout=None)
        with pytest.warns(UserWarning, match="holdout empty"):
            out = ValidationStage().run(pool, ctx)
        assert out is pool
        assert ctx.trace["skipped"] == "holdout empty"

    def test_final_scores_blend_internal_and_holdout(self, registry):
        data = make_dataset("separable", 90, 3, 2)
        holdout = make_dataset("separable", 20, 3, 5)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=1))
        pool = self._pool([0.25, 0.3])
        vcfg = ValidationConfig(m=2, n_bar=10000)
        ctx = ctx_for(ev, data, registry, holdout=holdout, validation=vcfg)
        out = ValidationStage().run(pool, ctx)
        w = omega(20, 110, 10000)
        for e in out:
            assert e.final_score == pytest.approx(
                final_score(e.score.mean, e.phi_validate, w), abs=1e-12
            )

    def test_deadline_lapsing_in_holdout_predict_stops_quietly(self):
        data = make_dataset("separable", 60, 3, 2)
        holdout = make_dataset("separable", 30, 3, 3)
        stage_deadline = Deadline(0.2)

        class SlowModel:
            """Predicts only once the stage deadline has lapsed."""

            def predict(self, rows, deadline=None):
                while not stage_deadline.expired():
                    time.sleep(0.01)
                if deadline is not None:
                    deadline.check()
                return np.zeros(rows.shape[:2], dtype=np.int64)

        def fit_slow(X, y, n_classes, params, seed=0, deadline=None):
            return SlowModel()

        slow = Registry(learners={"slow": LearnerSpec("slow", {}, {}, False, fit_slow)})
        pool = CandidatePool([entry(0.1, learner="slow")])
        ctx = ctx_for(
            StubEvaluator(), data, slow, holdout=holdout, validation=ValidationConfig(m=1), deadline=stage_deadline
        )
        out = ValidationStage().run(pool, ctx)
        assert ctx.trace.get("deadline_hit") is True
        assert ctx.trace["finalists"] == [] and len(out) == 0


@pytest.mark.parametrize(
    "stage, filled",
    [
        (ProbingStage(), True),
        (ScalingStage(), True),
        (FilteringStage(), True),
        (FilteringStage(), False),
        (MetaStage(), True),
        (TuningStage(), True),
        (ValidationStage(), True),
    ],
    ids=["probing", "scaling", "filtering", "filtering-empty-pool", "meta", "tuning", "validation"],
)
def test_lapsed_stage_deadline_stops_work_and_is_recorded(registry, stage, filled):
    data = make_dataset("separable", 40, 3, 0)
    stub = StubEvaluator()
    pool = CandidatePool([entry(0.2, learner="knn"), entry(0.3, learner="logistic_regression")] if filled else [])
    keys = pool.keys()
    ctx = ctx_for(
        stub,
        data,
        registry,
        holdout=make_dataset("separable", 20, 3, 1),
        validation=ValidationConfig(),
        deadline=Deadline(0.0),
    )
    out = stage.run(pool, ctx)
    assert stub.calls == [] and ctx.trace.get("finalists", []) == []
    assert pool.keys() == keys
    # the validation stage returns a new, terminal pool: nothing was rescored
    assert out is pool if stage.stage_id != "validation" else len(out) == 0
    assert ctx.trace.get("deadline_hit") is True


def test_pool_min_never_worsens_across_stages(registry):
    data = make_dataset("scale_sensitive", 100, 5, 1)
    ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=8))
    pool = CandidatePool()
    best = float("inf")
    for stage in (ProbingStage(), ScalingStage(), FilteringStage(), MetaStage(), TuningStage(max_evals=4)):
        pool = stage.run(pool, ctx_for(ev, data, registry, seed=3))
        current = pool.best().score.mean
        assert current <= best + 1e-12
        best = min(best, current)


def test_each_phase_reaches_the_evaluator_as_one_batch(registry, monkeypatch):
    batches = []
    evaluate_many = Evaluator.evaluate_many

    def spy(self, candidates, stage, deadline=None, budgets=None):
        batches.append((stage, [candidate_key(c) for c in candidates]))
        return evaluate_many(self, candidates, stage, deadline, budgets)

    monkeypatch.setattr(Evaluator, "evaluate_many", spy)
    data = make_dataset("scale_sensitive", 120, 5, 0)
    ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=3))
    pool, traces = CandidatePool(), {}
    for stage in (ProbingStage(), ScalingStage(), FilteringStage()):
        ctx = ctx_for(ev, data, registry)
        pool = stage.run(pool, ctx)
        traces[stage.stage_id] = ctx.trace
    ev.close()
    # probing; scaling's pilot grid, then its expansion; filtering's twins
    assert [stage for stage, _ in batches] == ["probing", "scaling", "scaling", "filtering"]
    assert batches[0][1] == [f"-|-|{lid}|default" for lid in registry.base_learner_ids()]
    pilots = {key.split("|")[2] for key in batches[1][1]}
    assert {key.split("|")[0] for key in batches[1][1]} == set(registry.scaler_ids())  # probing scored them raw
    assert batches[2][1] == [
        f"{scaler}|-|{lid}|default"
        for scaler in traces["scaling"]["expanded_scalers"]
        for lid in registry.base_learner_ids()
        if lid not in pilots
    ]
    assert traces["scaling"]["expanded_scalers"] and len(traces["filtering"]["feature_set"]) < data.n_columns
    # every full-protocol scoring of these stages came from those batches, in their order
    journaled = [r.candidate_key for r in ev.journal_records() if not r.auxiliary]
    assert journaled == [key for _, keys in batches for key in keys]


# ---------------------------------------------------------------------------
# meta and tuning batches on worker processes

META_SECONDS = 0.2


def _slow_meta_fit(base, base_params, X, y, n_classes, params, seed=None, deadline=None):
    """One plain fit of the base learner, after 2 * META_SECONDS of sleep
    for each candidate in the stack (five folds each)."""
    time.sleep(2 * META_SECONDS * len(X) / 5)
    return base.fit(X, y, n_classes, base_params, seed=seed, deadline=deadline)


def test_stage_deadline_lapsing_mid_batch_stops_dispatch(registry, monkeypatch):
    monkeypatch.setattr(evaluation, "WORKERS", 2)
    monkeypatch.setattr(evaluation, "POOL_CELLS", 1)  # these batches hold a few thousand cells
    slow = LearnerSpec(id="slow", default_params={}, param_space={}, is_meta=True, fit=_slow_meta_fit)
    base = {lid: spec for lid, spec in registry.learners.items() if not spec.is_meta}
    reg = replace(registry, learners={**base, "slow": slow})
    data = make_dataset("separable", 40, 3, 0)
    ev = Evaluator(registry=reg, dataset=data, cfg=EvalConfig(seed=0))
    ev.evaluate_many([Candidate("knn"), Candidate("gaussian_nb")], stage="probing")  # forks the workers
    pool = CandidatePool([
        entry(0.1 + 0.01 * i, learner=lid, scaler=scaler)
        for i, (lid, scaler) in enumerate((l, s) for s in (None, "standardize") for l in ("knn", "gaussian_nb", "decision_tree", "logistic_regression"))
    ])
    submitted = [candidate_key(e.candidate.with_meta("slow")) for e in pool.sorted_by_score()]
    ctx = ctx_for(ev, data, reg, deadline=Deadline(2.5 * META_SECONDS))
    MetaStage().run(pool, ctx)
    ev.close()
    journaled = [r.candidate_key for r in ev.journal_records() if r.stage == "meta"]
    # each learner's raw and standardized entries go out as one stack of
    # 4 * META_SECONDS: two workers take the first two stacks before the
    # deadline, and it lapses before either is done
    stacks = [[submitted[i], submitted[i + 4]] for i in range(4)]
    sent = [stack for stack in stacks if stack[0] in journaled]
    assert 2 <= len(sent) < len(stacks) and sent == stacks[: len(sent)]
    assert journaled == [key for key in submitted if any(key in stack for stack in sent)]
    assert ctx.trace["deadline_hit"] is True
    assert multiprocessing.active_children() == []


def _slow_on_unit_range_fit(X, y, n_classes, params, seed=0, deadline=None):
    """Gaussian NB, except that a stack holding a slice scaled into
    [0, 1] (minmax, quantile_rank) runs until its deadline lapses."""
    if any(x.min() >= -1e-9 and x.max() <= 1.0 + 1e-9 for x in X):
        while not deadline.expired():
            time.sleep(0.005)
        deadline.check()
    return fit_gaussian_nb(X, y, n_classes, params, seed=seed, deadline=deadline)


@pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "workers"])
def test_stage_deadline_lapsing_in_scaling_pilots_leaves_expansion_undispatched(registry, monkeypatch, workers):
    monkeypatch.setattr(evaluation, "WORKERS", workers)
    monkeypatch.setattr(evaluation, "POOL_CELLS", 1)
    slow = LearnerSpec(id="slow", default_params={}, param_space={}, is_meta=False, fit=_slow_on_unit_range_fit)
    reg = replace(registry, learners={**registry.learners, "slow": slow})
    data = make_dataset("scale_sensitive", 60, 4, 1)
    ev = Evaluator(registry=reg, dataset=data, cfg=EvalConfig(seed=0))
    # the pool's best, ``slow``, joins the pilots: under minmax it runs past
    # the stage deadline, after standardize has improved knn
    pool = CandidatePool([entry(0.05, learner="slow")])
    ctx = ctx_for(ev, data, reg, deadline=Deadline(1.0))
    ScalingStage().run(pool, ctx)
    forked = ev._workers is not None
    ev.close()
    assert forked == (workers == 2)
    assert "standardize" in ctx.trace["expanded_scalers"] and ctx.trace["deadline_hit"] is True
    scored = {r.candidate_key.split("|")[2] for r in ev.journal_records()}
    assert scored == {"knn", "gaussian_nb", "slow"}  # pilots only: no expansion
    assert multiprocessing.active_children() == []


def test_second_tuning_stage_journal_independent_of_worker_count(registry, monkeypatch):
    data = make_dataset("scale_sensitive", 60, 4, 2)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(evaluation, "WORKERS", workers)
        ev = Evaluator(registry=registry, dataset=data, cfg=EvalConfig(seed=5))
        pool = ProbingStage().run(CandidatePool(), ctx_for(ev, data, registry, seed=1))
        for _ in range(2):  # the second stage tunes the first one's additions too
            pool = TuningStage(max_evals=4).run(pool, ctx_for(ev, data, registry, seed=2))
        ev.close()
        journal = [{k: v for k, v in r.to_dict().items() if k != "wall_ms"} for r in ev.journal_records()]
        runs.append((journal, [(e.key, e.stage_id) for e in pool]))
    assert runs[0] == runs[1]
    assert sum(1 for key, stage in runs[1][1] if stage == "tuning") > 0
    assert multiprocessing.active_children() == []
