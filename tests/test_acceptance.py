"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from stagedml import orchestrator
from stagedml.components import registry_default
from stagedml.evaluation import (
    Candidate,
    EvalConfig,
    Evaluator,
    candidate_key,
    mccv_score,
    mccv_splits,
)
from stagedml.orchestrator import holdout_split, run, scheme_presets
from stagedml.rng import Rng
from stagedml.stages import (
    CandidatePool,
    ProbingStage,
    ScalingStage,
    StageContext,
    ValidationConfig,
    compute_feature_set,
    final_score,
    omega,
    tau,
)
from stagedml.stats import ResultMatrix, tournament, trimmed_mean, wilcoxon_signed_rank
from stagedml.synth import make_dataset

from conftest import make_numeric_dataset, random_dataset, spy_registry


@contextmanager
def criterion(name: str, max_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL ({time.monotonic() - started:.1f}s)")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < max_seconds, f"{name} exceeded its runtime budget ({elapsed:.1f}s)"
    print(f"\n[acceptance] {name}: PASS ({elapsed:.1f}s)")


REGISTRY = registry_default()


def test_c01_validation_math_exactness():
    with criterion("C1 validation-math-exactness", max_seconds=1.0):
        rng = Rng(101)
        for _ in range(1000):
            n_bar = rng.randint(1, 50_000)
            total = rng.randint(1, 50_000)
            n = rng.randint(0, total)
            t = tau(n, n_bar)
            w = omega(n, total, n_bar)
            phi_i = rng.random()
            phi_v = rng.random()
            f = final_score(phi_i, phi_v, w)
            # independently coded formulas
            t_ref = min(1.0, n / n_bar)
            w_ref = t_ref + (n / total) * (1.0 - t_ref)
            f_ref = phi_i * (1.0 - w_ref) + phi_v * w_ref
            assert abs(t - t_ref) <= 1e-12
            assert abs(w - w_ref) <= 1e-12
            assert abs(f - f_ref) <= 1e-12
        # the illustrative 500-instance / 100-holdout point
        assert abs(omega(100, 500, 10_000) - 0.208) <= 1e-12


def test_c02_mccv_protocol():
    with criterion("C2 mccv-protocol", max_seconds=30.0):
        np_rng = np.random.default_rng(202)
        for i in range(50):
            d = random_dataset(np_rng)
            cfg = EvalConfig(repeats=5, train_fraction=0.7, seed=int(np_rng.integers(0, 2**63)))
            splits = mccv_splits(d, cfg)
            assert len(splits) == 5
            expected_train = int(math.floor(0.7 * d.n_rows + 0.5))
            for train_rows, val_rows in splits:
                assert len(train_rows) == expected_train
                assert set(train_rows).isdisjoint(val_rows)
                assert len(train_rows) + len(val_rows) == d.n_rows
                for c in range(len(d.class_names)):
                    total_c = int((d.labels == c).sum())
                    got = int((d.labels[train_rows] == c).sum())
                    assert abs(got - 0.7 * total_c) <= 1.0
            again = mccv_splits(d, cfg)
            for (a, b), (c2, e) in zip(splits, again):
                assert np.array_equal(a, c2) and np.array_equal(b, e)
        # folds are shared across candidates within one evaluator run
        for seed in (1, 2, 3):
            d = make_dataset("separable", 60, 3, seed)
            folds: dict[str, list] = {}  # learner id -> column 0 of each training fold it fitted
            ev = Evaluator(
                registry=spy_registry(
                    REGISTRY, lambda lid, stack: folds.setdefault(lid, []).extend(tuple(tr[:, 0]) for tr in stack)
                ),
                dataset=d,
                cfg=EvalConfig(seed=seed),
            )
            ev.evaluate(Candidate(learner="knn"), stage="probing")
            ev.evaluate(Candidate(learner="gaussian_nb"), stage="probing")
            assert len(folds["knn"]) == 5 and folds["knn"] == folds["gaussian_nb"]


def test_c03_primitive_profile_semantics():
    with criterion("C3 primitive-profile-semantics", max_seconds=120.0):
        kinds = ["separable", "madelon_like", "scale_sensitive", "noise_only"]
        for i in range(10):
            kind = kinds[i % 4]
            data = make_dataset(kind, 60 + 4 * i, 3 + (i % 3), seed=i)
            seed = 1000 + i
            cfg = scheme_presets(seed=seed, eval_config=EvalConfig(seed=seed))["primitive"]
            report = run(data, cfg)
            assert report.ok
            # independent loop: evaluate each base learner directly
            best_key, best_mean = None, float("inf")
            for lid in REGISTRY.base_learner_ids():
                s = mccv_score(
                    Candidate(learner=lid), data, EvalConfig(seed=seed), REGISTRY
                )
                if s.ok and s.mean < best_mean:
                    best_key, best_mean = candidate_key(Candidate(learner=lid)), s.mean
            assert report.best_key == best_key
            assert report.best_score == pytest.approx(best_mean, abs=1e-15)


def test_c04_filtering_curve_mechanism():
    with criterion("C4 filtering-curve-mechanism", max_seconds=180.0):
        small_f = 0
        twin_ok = 0
        for seed in range(5):
            data = make_dataset("madelon_like", 600, 100, seed, informative=5)
            ev = Evaluator(registry=REGISTRY, dataset=data, cfg=EvalConfig(seed=seed))
            pool = ProbingStage().run(
                CandidatePool(),
                StageContext(evaluator=ev, registry=REGISTRY, data=data, seed=seed),
            )
            best = pool.best()
            ctx = StageContext(evaluator=ev, registry=REGISTRY, data=data, seed=seed)
            features, _ = compute_feature_set(ctx)
            if len(features) <= 20:
                small_f += 1
            twin = ev.evaluate(best.candidate.with_features(features), stage="filtering")
            if twin.ok and twin.mean <= best.score.mean + 0.02:
                twin_ok += 1
        assert small_f >= 4, f"|F| <= 20 in only {small_f}/5 seeds"
        assert twin_ok >= 4, f"twin within +0.02 in only {twin_ok}/5 seeds"


def test_c05_scaling_stage_gate():
    with criterion("C5 scaling-stage-gate", max_seconds=120.0):
        def expansion(data, seed):
            ev = Evaluator(registry=REGISTRY, dataset=data, cfg=EvalConfig(seed=seed))
            pool = ProbingStage().run(
                CandidatePool(),
                StageContext(evaluator=ev, registry=REGISTRY, data=data, seed=seed),
            )
            ctx = StageContext(evaluator=ev, registry=REGISTRY, data=data, seed=seed)
            ScalingStage().run(pool, ctx)
            return ctx.trace["expanded_scalers"]

        triggered = 0
        untriggered = 0
        for seed in range(5):
            data = make_dataset("scale_sensitive", 150, 6, seed)
            if "standardize" in expansion(data, 300 + seed):
                triggered += 1
            x = data.instances
            pre = make_numeric_dataset(
                (x - x.mean(axis=0)) / x.std(axis=0), data.labels
            )
            if "standardize" not in expansion(pre, 300 + seed):
                untriggered += 1
        assert triggered == 5, f"standardize expanded in only {triggered}/5 raw seeds"
        assert untriggered >= 4, f"expansion suppressed in only {untriggered}/5 pre-standardized seeds"


def test_c06_budget_enforcement():
    grace = EvalConfig().per_eval_timeout  # one per-evaluation grace period
    with criterion("C6 budget-enforcement", max_seconds=5 * (10.0 + grace)):
        data = make_dataset("separable", 5000, 8, 42)
        for trial in range(5):
            cfg = replace(
                scheme_presets(seed=trial, eval_config=EvalConfig(seed=trial))["full"],
                global_timeout=10.0,
            )
            t0 = time.monotonic()
            report = run(data, cfg)
            elapsed = time.monotonic() - t0
            assert elapsed <= 10.0 + grace, f"trial {trial} ran {elapsed:.1f}s"
            probing_ok = [
                r
                for r in report.journal
                if r["stage"] == "probing" and r["status"] == "ok" and not r["auxiliary"]
            ]
            if probing_ok:
                assert report.ok
                assert report.best_key is not None


def test_c07_statistics_oracles():
    with criterion("C7 statistics-oracles", max_seconds=60.0):
        rng = np.random.default_rng(707)

        def oracle_p(diffs):
            diffs = [d for d in diffs if d != 0.0]
            n = len(diffs)
            if n == 0:
                return 1.0
            abs_d = sorted((abs(d), i) for i, d in enumerate(diffs))
            ranks = [0.0] * n
            i = 0
            while i < n:
                j = i
                while j + 1 < n and abs_d[j + 1][0] == abs_d[i][0]:
                    j += 1
                for t in range(i, j + 1):
                    ranks[abs_d[t][1]] = (i + j) / 2 + 1
                i = j + 1
            w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
            le = ge = 0
            for signs in itertools.product((0, 1), repeat=n):
                w = sum(r for s, r in zip(signs, ranks) if s)
                le += w <= w_plus
                ge += w >= w_plus
            return min(1.0, 2.0 * min(le, ge) / 2**n)

        for _ in range(200):
            n = int(rng.integers(1, 11))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=float(rng.uniform(0.05, 2.0)), size=n)
            ties = rng.random() < 0.3
            if ties and n >= 2:
                b[: n // 2] = a[: n // 2]
            _, p = wilcoxon_signed_rank(list(a), list(b))
            assert p == pytest.approx(oracle_p(list(a - b)), abs=1e-12)

        for _ in range(200):
            values = rng.uniform(0, 1, int(rng.integers(1, 40)))
            trim = float(rng.uniform(0, 0.45))
            k = math.floor(trim * len(values))
            kept = sorted(values)[k : len(values) - k] if k else sorted(values)
            assert trimmed_mean(values, trim) == pytest.approx(float(np.mean(kept)), abs=1e-12)

        for _ in range(20):
            n_ds = int(rng.integers(2, 7))
            n_splits = int(rng.integers(4, 12))
            m = ResultMatrix()
            for i in range(n_ds):
                base = rng.uniform(0.2, 0.6, n_splits)
                for name in ("base", "A", "B", "C"):
                    shift = 0.0 if name == "base" else float(rng.normal(0, 0.08))
                    cell = np.clip(base - shift + rng.normal(0, 0.02, n_splits), 0, 1)
                    for s, v in enumerate(cell):
                        m.add(f"d{i}", name, s, float(v))
            table = tournament(m, "base", ["A", "B", "C"])
            for row in table.values():
                assert row.wins + row.losses + row.draws == n_ds
                assert row.unique_wins <= row.wins


def test_c08_monotone_scheme_property():
    with criterion("C8 monotone-scheme-property", max_seconds=300.0):
        chain = [
            "primitive",
            "monotone-scaling",
            "monotone-filtering",
            "monotone-meta",
            "monotone-tuning",
        ]
        for i in range(5):
            data = make_dataset(
                ["separable", "madelon_like", "scale_sensitive", "noise_only", "madelon_like"][i],
                60 + 5 * i,
                4,
                seed=40 + i,
            )
            seed = 800 + i
            presets = scheme_presets(seed=seed, eval_config=EvalConfig(seed=seed))
            previous = float("inf")
            for name in chain:
                cfg = presets[name]
                stages = [
                    replace(s, max_evals=4) if s.stage_id == "tuning" else s
                    for s in cfg.stages
                ]
                report = run(data, replace(cfg, stages=stages))
                assert report.ok
                assert report.internal_best_score <= previous + 1e-12, (
                    f"{name} worsened the best-seen score on dataset {i}"
                )
                previous = report.internal_best_score


def test_c09_leakage_and_holdout_hygiene(monkeypatch):
    with criterion("C9 leakage-and-holdout-hygiene", max_seconds=120.0):
        rng = np.random.default_rng(909)
        # scaler canary: an outlier placed in a validation fold must not
        # move statistics fitted on that repeat's training fold
        for trial in range(10):
            n = int(rng.integers(30, 60))
            x = rng.normal(size=(n, 3))
            y = np.array([0, 1] * (n // 2) + [0] * (n % 2))
            cfg = EvalConfig(seed=trial)
            base = make_numeric_dataset(x, y)
            train_rows, val_rows = mccv_splits(base, cfg)[trial % 5]
            x = x.copy()
            x[val_rows[0], 0] = 1e9
            poisoned = make_numeric_dataset(x, y)
            train_part = poisoned.subset_rows(train_rows)
            from stagedml.evaluation import fit_pipeline

            fitted = fit_pipeline(
                Candidate(learner="gaussian_nb", scaler="standardize"),
                train_part,
                REGISTRY,
                seed=0,
            )
            assert fitted.scaler.center[0] == pytest.approx(float(train_part.instances[:, 0].mean()))
            assert abs(fitted.scaler.center[0]) < 1e6

        # holdout hygiene: holdout row ids never appear in training folds
        for trial in range(10):
            n = 60 + 2 * int(rng.integers(0, 10))
            data = make_dataset("separable", n, 3, seed=trial)
            x = data.instances.copy()
            x[:, 0] = np.arange(float(n))  # column 0 becomes a row id
            tagged = make_numeric_dataset(x, data.labels)
            seed = 950 + trial
            cfg = replace(
                scheme_presets(seed=seed, eval_config=EvalConfig(seed=seed))["single-validation"],
                validation=ValidationConfig(m=2, holdout_fraction=0.15),
            )
            # every training matrix of a base learner or scaler fit, the
            # validation stage's refits included, by its row ids
            seen: list[set] = []
            spy = spy_registry(REGISTRY, lambda component, stack: seen.extend(set(tr[:, 0]) for tr in stack))
            monkeypatch.setattr(orchestrator, "_registry", lambda: spy)
            run(tagged, cfg)
            _, holdout = holdout_split(tagged, cfg)
            holdout_ids = set(holdout.instances[:, 0])
            assert holdout_ids and seen
            for ids in seen:
                assert ids.isdisjoint(holdout_ids)


def test_c10_end_to_end_reproducibility(tmp_path):
    with criterion("C10 end-to-end-reproducibility", max_seconds=240.0):
        import json

        from stagedml.cli import main

        data_path = tmp_path / "data.csv"
        assert main([
            "synth", "--kind", "scale_sensitive", "--n", "60", "--d", "4",
            "--seed", "2", "--out", str(data_path),
        ]) == 0

        def bench(outdir, seed):
            args = [
                "bench", "--data", str(data_path), "--label", "label",
                "--preset", "primitive", "--preset", "single-scaling",
                "--splits", "2", "--seed", str(seed), "--out", str(outdir),
            ]
            assert main(args) == 0
            return (outdir / "results.csv").read_bytes(), (outdir / "journal.jsonl").read_text()

        csv_a, journal_a = bench(tmp_path / "a", 21)
        csv_b, journal_b = bench(tmp_path / "b", 21)
        assert csv_a == csv_b, "identical configs must produce byte-identical results.csv"
        strip = lambda text: [
            {k: v for k, v in json.loads(line).items() if k != "wall_ms"}
            for line in text.strip().splitlines()
        ]
        assert strip(journal_a) == strip(journal_b)

        csv_c, journal_c = bench(tmp_path / "c", 22)
        assert strip(journal_c) != strip(journal_a), "a different seed must change the journal"
        header = lambda blob: blob.decode("utf-8").splitlines()[0]
        assert header(csv_c) == header(csv_a)  # schema identical
        keys = lambda text: {frozenset(json.loads(l)) for l in text.strip().splitlines()}
        assert keys(journal_c) == keys(journal_a)  # record schema identical
