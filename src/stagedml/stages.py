"""The stage framework and the six concrete stages.

Every stage maps (candidate pool, context) to an augmented candidate
pool. New entries are always scored by the shared evaluator on the
optimization data; holdout data is visible to the validation stage
alone. Stages respect a cooperative deadline and return whatever they
completed when it lapses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from stagedml.components.domains import enumerate_grid, space_grid_size, space_is_enumerable
from stagedml.components.registry import Registry
from stagedml.data import Dataset, FeatureSet
from stagedml.evaluation import (
    Candidate,
    Evaluator,
    Score,
    candidate_key,
    error_rate,
    fit_pipeline,
)
from stagedml.rng import Rng, derive_seed
from stagedml.timing import Deadline, DeadlineExceeded

PILOT_LEARNERS = ("knn", "gaussian_nb")


@dataclass
class ScoredCandidate:
    candidate: Candidate
    score: Score
    stage_id: str
    phi_validate: float | None = None
    final_score: float | None = None

    @property
    def key(self) -> str:
        return candidate_key(self.candidate)


class CandidatePool:
    """Ordered, key-deduplicated collection of ok-scored candidates."""

    def __init__(self, entries: Iterable[ScoredCandidate] = ()) -> None:
        self._entries: list[ScoredCandidate] = []
        self._index: dict[str, ScoredCandidate] = {}
        for e in entries:
            self.add(e)

    def add(self, entry: ScoredCandidate) -> bool:
        """Append unless the key is already present; rejects non-ok scores."""
        if not entry.score.ok:
            raise ValueError("pools hold only candidates with status ok")
        key = entry.key
        if key in self._index:
            return False
        self._entries.append(entry)
        self._index[key] = entry
        return True

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def get(self, key: str) -> ScoredCandidate | None:
        return self._index.get(key)

    def entries(self) -> list[ScoredCandidate]:
        return list(self._entries)

    def sorted_by_score(self) -> list[ScoredCandidate]:
        """Best (lowest mean) first; ties keep insertion order."""
        return sorted(self._entries, key=lambda e: e.score.mean)

    def best(self) -> ScoredCandidate | None:
        return min(self._entries, key=lambda e: e.score.mean, default=None)

    def keys(self) -> list[str]:
        return [e.key for e in self._entries]


@dataclass(frozen=True)
class ValidationConfig:
    n_bar: int = 10000
    m: int = 10
    holdout_fraction: float = 0.10

    def __post_init__(self) -> None:
        if self.n_bar < 1:
            raise ValueError("n_bar must be positive")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 < self.holdout_fraction < 0.5:
            raise ValueError("holdout_fraction must lie in (0, 0.5)")


@dataclass
class StageContext:
    """Everything a stage may touch: evaluator, registry, data, budget."""

    evaluator: Evaluator
    registry: Registry
    data: Dataset
    holdout: Dataset | None = None
    seed: int = 0
    deadline: Deadline | None = None
    validation: ValidationConfig | None = None
    trace: dict = field(default_factory=dict)

    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()


# ---------------------------------------------------------------------------
# validation-weighting math


def tau(n: int, n_bar: int) -> float:
    """Saturation of the holdout size against the trusted size n_bar."""
    if n < 0 or n_bar < 1:
        raise ValueError("need n >= 0 and n_bar >= 1")
    return min(1.0, n / n_bar)


def omega(n: int, total: int, n_bar: int) -> float:
    """Blended holdout weight: tau plus the data-share correction."""
    if not 0 <= n <= total or total < 1:
        raise ValueError("need 0 <= n <= total and total >= 1")
    t = tau(n, n_bar)
    return t + (n / total) * (1.0 - t)


def final_score(phi_int: float, phi_val: float, w: float) -> float:
    """Convex combination of internal and holdout scores."""
    if not 0.0 <= w <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    return phi_int * (1.0 - w) + phi_val * w


# ---------------------------------------------------------------------------
# stage implementations


@dataclass
class ProbingStage:
    """Evaluate every base learner once with default parameters."""

    stage_id: str = "probing"
    time_limit: float | None = None

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        added = []
        for learner_id in ctx.registry.base_learner_ids():
            if ctx.expired():
                ctx.trace["deadline_hit"] = True
                break
            c = Candidate(learner=learner_id)
            if candidate_key(c) in pool:
                continue
            score = ctx.evaluator.evaluate(c, stage=self.stage_id, deadline=ctx.deadline)
            if score.ok:
                pool.add(ScoredCandidate(c, score, self.stage_id))
                added.append(candidate_key(c))
        ctx.trace["added"] = added
        return pool


def scalers_to_expand(
    baseline_means: dict[str, float],
    scaled_means: dict[tuple[str, str], float],
    epsilon: float = 0.0,
) -> list[str]:
    """Scaler ids where at least one pilot strictly improved.

    Depends only on score orderings, never magnitudes: a scaler expands
    iff scaled < baseline - epsilon for some pilot with both scores.
    """
    out = []
    for scaler_id in sorted({s for s, _ in scaled_means}):
        for pilot, base in baseline_means.items():
            mean = scaled_means.get((scaler_id, pilot))
            if mean is not None and mean < base - epsilon:
                out.append(scaler_id)
                break
    return out


@dataclass
class ScalingStage:
    """Pair scalers with cheap pilot learners; expand a scaler to the
    whole catalog when it strictly improves some pilot."""

    stage_id: str = "scaling"
    time_limit: float | None = None
    epsilon: float = 0.0
    include_best_pilot: bool = True

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        pilots: list[Candidate] = [Candidate(learner=p) for p in PILOT_LEARNERS]
        if self.include_best_pilot:
            best = pool.best()
            if best is not None and best.candidate.meta is None:
                extra = Candidate(learner=best.candidate.learner, params=best.candidate.params)
                if candidate_key(extra) not in {candidate_key(p) for p in pilots}:
                    pilots.append(extra)
        pilot_learner_ids = {p.learner for p in pilots}

        baselines: dict[str, float] = {}
        for p in pilots:
            if ctx.expired():
                return self._finish(pool, ctx, [])
            key = candidate_key(p)
            entry = pool.get(key)
            if entry is None:
                score = ctx.evaluator.evaluate(p, stage=self.stage_id, deadline=ctx.deadline)
                if score.ok:
                    entry = ScoredCandidate(p, score, self.stage_id)
                    pool.add(entry)
            if entry is not None:
                baselines[key] = entry.score.mean

        scaled_means: dict[tuple[str, str], float] = {}
        for scaler_id in ctx.registry.scaler_ids():
            for p in pilots:
                if ctx.expired():
                    return self._finish(pool, ctx, scalers_to_expand(baselines, scaled_means, self.epsilon))
                c = replace(p, scaler=scaler_id)
                if candidate_key(c) in pool:
                    scaled_means[(scaler_id, candidate_key(p))] = pool.get(candidate_key(c)).score.mean
                    continue
                score = ctx.evaluator.evaluate(c, stage=self.stage_id, deadline=ctx.deadline)
                if score.ok:
                    pool.add(ScoredCandidate(c, score, self.stage_id))
                    scaled_means[(scaler_id, candidate_key(p))] = score.mean

        expanded = scalers_to_expand(baselines, scaled_means, self.epsilon)
        for scaler_id in expanded:
            for learner_id in ctx.registry.base_learner_ids():
                if learner_id in pilot_learner_ids:
                    continue
                if ctx.expired():
                    return self._finish(pool, ctx, expanded)
                c = Candidate(learner=learner_id, scaler=scaler_id)
                if candidate_key(c) in pool:
                    continue
                score = ctx.evaluator.evaluate(c, stage=self.stage_id, deadline=ctx.deadline)
                if score.ok:
                    pool.add(ScoredCandidate(c, score, self.stage_id))
        return self._finish(pool, ctx, expanded)

    def _finish(self, pool: CandidatePool, ctx: StageContext, expanded: list[str]) -> CandidatePool:
        ctx.trace["expanded_scalers"] = expanded
        if ctx.expired():
            ctx.trace["deadline_hit"] = True
        return pool


def feature_curve(
    score_at,
    schedule: Sequence[int],
    tol: float = 0.005,
    patience: int = 2,
    deadline: Deadline | None = None,
) -> list[tuple[int, float]]:
    """Walk prefix lengths until scores worsen persistently.

    Advances while points stay within ``tol`` of the best seen; stops
    after ``patience`` consecutive worse points (or when the deadline
    lapses). Returns the evaluated (length, score) points.
    """
    points: list[tuple[int, float]] = []
    best = float("inf")
    worse_streak = 0
    for l in schedule:
        if deadline is not None and deadline.expired():
            break
        s = score_at(l)
        points.append((l, s))
        if s > best + tol:
            worse_streak += 1
            if worse_streak >= patience:
                break
        else:
            worse_streak = 0
            best = min(best, s)
    return points


def prefix_schedule(n_columns: int) -> list[int]:
    """Geometric lengths 1, 2, 4, ... capped at and including n_columns."""
    out = []
    l = 1
    while l < n_columns:
        out.append(l)
        l *= 2
    out.append(n_columns)
    return out


def select_best_prefix(curves: list[tuple[str, list[int], list[tuple[int, float]]]]):
    """Best (filter, prefix) across curves; ties prefer smaller length,
    then earlier filter registration."""
    best = None  # (score, length, filter_pos, ranking)
    for pos, (filter_id, ranking, points) in enumerate(curves):
        for l, s in points:
            if best is None or s < best[0] or (s == best[0] and l < best[1]):
                best = (s, l, pos, ranking, filter_id)
    return best


def compute_feature_set(
    ctx: StageContext,
    filters: Sequence[str] | None = None,
    pilot: Candidate | None = None,
    tol: float = 0.005,
    patience: int = 2,
    cheap_repeats: int = 3,
) -> tuple[FeatureSet, list[dict]]:
    """Choose a feature prefix from per-filter performance curves.

    For each filter ranking, a pilot is scored under a cheap MCCV
    (``cheap_repeats`` repeats) on growing prefixes; the best-scoring
    (filter, length) wins. Independent of the candidate pool. Falls back
    to all features when nothing could be evaluated.
    """
    data = ctx.data
    filter_ids = list(filters) if filters is not None else ctx.registry.filter_ids()
    if not filter_ids:
        raise ValueError("compute_feature_set needs at least one filter")
    pilot = pilot if pilot is not None else Candidate(learner="knn")
    cheap_cfg = replace(ctx.evaluator.cfg, repeats=cheap_repeats)
    schedule = prefix_schedule(data.n_columns)

    curves = []
    curve_traces = []
    for filter_id in filter_ids:
        if ctx.expired():
            break
        ranking = ctx.registry.rank_features(filter_id, data)

        def score_at(l: int, _ranking=ranking) -> float:
            c = replace(pilot, features=FeatureSet(_ranking[:l]))
            s = ctx.evaluator.evaluate(c, stage="filtering", cfg=cheap_cfg, deadline=ctx.deadline)
            return s.mean if s.ok else float("inf")

        points = feature_curve(score_at, schedule, tol=tol, patience=patience, deadline=ctx.deadline)
        curves.append((filter_id, ranking, points))
        curve_traces.append({"filter": filter_id, "points": [[l, s] for l, s in points]})

    best = select_best_prefix(curves)
    if best is None or best[0] == float("inf"):
        return FeatureSet(range(data.n_columns)), curve_traces
    _, length, _, ranking, _ = best
    return FeatureSet(ranking[:length]), curve_traces


@dataclass
class FilteringStage:
    """Compute one shared feature set, then give every candidate a
    projected twin, best candidates first."""

    stage_id: str = "filtering"
    time_limit: float | None = None
    tol: float = 0.005
    patience: int = 2
    cheap_repeats: int = 3
    pilot_learner: str = "knn"

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        features, curves = compute_feature_set(
            ctx,
            pilot=Candidate(learner=self.pilot_learner),
            tol=self.tol,
            patience=self.patience,
            cheap_repeats=self.cheap_repeats,
        )
        ctx.trace["feature_set"] = list(features)
        ctx.trace["curves"] = curves
        covers_all = len(features) == ctx.data.n_columns
        for entry in pool.sorted_by_score():
            if ctx.expired():
                ctx.trace["deadline_hit"] = True
                break
            if entry.candidate.features is not None:
                continue
            twin = entry.candidate.with_features(None if covers_all else features)
            if candidate_key(twin) in pool:
                continue
            score = ctx.evaluator.evaluate(twin, stage=self.stage_id, deadline=ctx.deadline)
            if score.ok:
                pool.add(ScoredCandidate(twin, score, self.stage_id))
        return pool


@dataclass
class MetaStage:
    """Wrap each candidate's learner in every registered meta-learner;
    feature slots are untouched."""

    stage_id: str = "meta"
    time_limit: float | None = None

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        metas = ctx.registry.meta_learner_ids()
        for entry in pool.sorted_by_score():
            if entry.candidate.meta is not None:
                continue
            for meta_id in metas:
                if ctx.expired():
                    ctx.trace["deadline_hit"] = True
                    return pool
                twin = entry.candidate.with_meta(meta_id)
                if candidate_key(twin) in pool:
                    continue
                score = ctx.evaluator.evaluate(twin, stage=self.stage_id, deadline=ctx.deadline)
                if score.ok:
                    pool.add(ScoredCandidate(twin, score, self.stage_id))
        return pool


@dataclass
class TuningStage:
    """Random-search (or small-grid enumeration) over learner params,
    candidates visited best-first under per-candidate budgets."""

    stage_id: str = "tuning"
    time_limit: float | None = None
    max_evals: int = 30
    per_candidate_seconds: float = 120.0

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        for entry in pool.sorted_by_score():
            if ctx.expired():
                ctx.trace["deadline_hit"] = True
                break
            self._tune_one(entry, pool, ctx)
        return pool

    def _tune_one(self, entry: ScoredCandidate, pool: CandidatePool, ctx: StageContext) -> None:
        learner_id = entry.candidate.learner
        space = ctx.registry.learner(learner_id).param_space
        if not space:
            return
        budget = (ctx.deadline or Deadline.unlimited()).clipped(self.per_candidate_seconds)
        effective = ctx.registry.effective_params(learner_id, entry.candidate.params)
        if space_is_enumerable(space) and space_grid_size(space) <= self.max_evals:
            samples = enumerate_grid(space)
        else:
            rng = Rng(derive_seed(ctx.seed, "tuning", entry.key))
            samples = (ctx.registry.sample_params(learner_id, rng) for _ in range(self.max_evals))
        evaluated = 0
        for params in samples:
            if evaluated >= self.max_evals or budget.expired():
                break
            if params == effective:
                continue  # the incumbent parameterization is already scored
            tuned = entry.candidate.with_params(params)
            if candidate_key(tuned) in pool:
                continue
            score = ctx.evaluator.evaluate(tuned, stage=self.stage_id, deadline=budget)
            evaluated += 1
            if score.ok and score.mean < entry.score.mean:
                pool.add(ScoredCandidate(tuned, score, self.stage_id))


@dataclass
class ValidationStage:
    """Re-rank the m internally-best candidates by blending internal and
    single-shot holdout scores; the output pool is terminal."""

    stage_id: str = "validation"
    time_limit: float | None = None

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        vcfg = ctx.validation if ctx.validation is not None else ValidationConfig()
        if ctx.holdout is None or ctx.holdout.n_rows == 0 or len(pool) == 0:
            reason = "holdout empty" if len(pool) else "pool empty"
            ctx.trace["skipped"] = reason
            warnings.warn(f"validation stage skipped: {reason}", stacklevel=2)
            return pool
        n = ctx.holdout.n_rows
        total = ctx.data.n_rows + n
        w = omega(n, total, vcfg.n_bar)
        ctx.trace.update({"omega": w, "holdout_rows": n, "total_rows": total})
        finalists = pool.sorted_by_score()[: vcfg.m]
        rescored: list[ScoredCandidate] = []
        detail = []
        for entry in finalists:
            if ctx.expired():
                ctx.trace["deadline_hit"] = True
                break
            try:
                fitted = fit_pipeline(
                    entry.candidate,
                    ctx.data,
                    ctx.registry,
                    seed=derive_seed(ctx.seed, "validate", entry.key),
                    deadline=ctx.deadline,
                )
                preds = fitted.predict(ctx.holdout.instances, deadline=ctx.deadline)
                phi_val = error_rate(ctx.holdout.labels, preds)
            except DeadlineExceeded:
                ctx.trace["deadline_hit"] = True
                break
            except Exception:
                continue  # failed refits drop out of the terminal pool
            final = final_score(entry.score.mean, phi_val, w)
            rescored.append(
                ScoredCandidate(
                    entry.candidate,
                    entry.score,
                    self.stage_id,
                    phi_validate=phi_val,
                    final_score=final,
                )
            )
            detail.append({"key": entry.key, "phi_int": entry.score.mean, "phi_val": phi_val, "final": final})
        rescored.sort(key=lambda e: e.final_score)
        ctx.trace["finalists"] = detail
        return CandidatePool(rescored)


Stage = ProbingStage | ScalingStage | FilteringStage | MetaStage | TuningStage | ValidationStage


def stage_run(stage: Stage, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
    """Uniform entry point for running one stage."""
    return stage.run(pool, ctx)
