"""The stage framework and the six concrete stages.

Every stage maps (candidate pool, context) to an augmented candidate
pool. New entries are always scored by the shared evaluator on the
optimization data; holdout data is visible to the validation stage
alone. Stages respect a cooperative deadline and return whatever they
completed when it lapses.

The protocol the stages share is written once, in ``StageContext``:
``try_add_many`` returns the pool entries of a batch of candidates,
scoring the ones the pool lacks as one ``Evaluator.evaluate_many`` batch
and adding each whose score is ok (and, for tuning, beats its
incumbent), in submission order. ``expired`` is the stage-deadline check
that records ``deadline_hit`` in the trace when it stops a stage. Each
independent phase is one batch: probing's learners, scaling's pilot grid
and then its expansion, filtering's twins, and meta's and tuning's whole
candidate lists; a later phase reads the scores of an earlier one. The
feature curves score one point at a time, as a point's patience rule
reads the points before it. A batch goes to worker processes only when
its training cells reach ``evaluation.POOL_CELLS``.
Settings no caller varies are module constants: ``scalers_to_expand``
reads ``SCALING_EPSILON``, ``feature_curve`` reads ``CURVE_TOL`` and
``CURVE_PATIENCE``, and the filtering stage scores its feature curves
with ``FILTER_PILOT`` on the run's first ``CHEAP_REPEATS`` folds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Iterable, Sequence

from stagedml.components.domains import enumerate_grid, space_grid_size, space_is_enumerable
from stagedml.components.registry import Registry
from stagedml.data import Dataset, FeatureSet
from stagedml.evaluation import Candidate, Evaluator, Score, candidate_key, holdout_error
from stagedml.rng import Rng, derive_seed
from stagedml.timing import NO_DEADLINE, Budget, Deadline

PILOT_LEARNERS = ("knn", "gaussian_nb")
SCALING_EPSILON = 0.0  # a scaler expands when it beats some pilot's raw score by more
FILTER_PILOT = "knn"  # the learner scored along every feature curve
CHEAP_REPEATS = 3  # MCCV repeats of one feature-curve point, at most the run's
CURVE_TOL = 0.005  # a curve point within this of the best so far is not worse
CURVE_PATIENCE = 2  # consecutive worse points that end a curve


@dataclass
class ScoredCandidate:
    candidate: Candidate
    score: Score
    stage_id: str
    phi_validate: float | None = None
    final_score: float | None = None
    key: str = field(init=False)

    def __post_init__(self) -> None:
        self.key = candidate_key(self.candidate)


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
    deadline: Deadline = NO_DEADLINE
    validation: ValidationConfig | None = None
    trace: dict = field(default_factory=dict)

    def expired(self) -> bool:
        """Whether the stage deadline has lapsed. A stage stops when this
        is true, so the trace records ``deadline_hit`` here."""
        if not self.deadline.expired():
            return False
        self.trace["deadline_hit"] = True
        return True

    def try_add_many(
        self,
        pool: CandidatePool,
        candidates: Sequence[Candidate],
        stage_id: str,
        budgets: Sequence[Budget] | None = None,
        accept: Callable[[int, Score], bool] | None = None,
    ) -> list[ScoredCandidate | None]:
        """The pool's entry for each candidate. The candidates the pool
        lacks are scored as one batch under the stage deadline (and
        candidate i under ``budgets[i]`` too, if given); then, in
        submission order, each whose score is ok and that ``accept(i,
        score)`` takes (if given) is added, unless an earlier one of the
        batch already added its key. None marks a candidate that was not
        added. A scoring that failed or never ran once the stage deadline
        has lapsed was cut off by it, so it records ``deadline_hit`` like
        the check that stops the stage."""
        todo = [i for i, c in enumerate(candidates) if candidate_key(c) not in pool]
        scores = self.evaluator.evaluate_many(
            [candidates[i] for i in todo], stage_id, self.deadline,
            budgets=[budgets[i] for i in todo] if budgets is not None else None,
        )
        score_of = dict(zip(todo, scores))
        entries, missed = [], False
        for i, candidate in enumerate(candidates):
            entry = pool.get(candidate_key(candidate))
            score = score_of.get(i)
            if entry is None and score is not None and score.ok:
                if accept is None or accept(i, score):
                    entry = ScoredCandidate(candidate, score, stage_id)
                    pool.add(entry)
            elif entry is None:
                missed = True
            entries.append(entry)
        if missed:
            self.expired()
        return entries


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

    stage_id: ClassVar[str] = "probing"
    time_limit: float | None = None

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        size = len(pool)
        ctx.try_add_many(pool, [Candidate(learner=lid) for lid in ctx.registry.base_learner_ids()], self.stage_id)
        ctx.trace["added"] = pool.keys()[size:]
        return pool


def scalers_to_expand(
    baseline_means: dict[str, float], scaled_means: dict[tuple[str, str], float]
) -> list[str]:
    """Scaler ids where at least one pilot strictly improved.

    Depends only on score orderings, never magnitudes: a scaler expands
    iff scaled < baseline - SCALING_EPSILON for some pilot with both scores.
    """
    out = []
    for scaler_id in sorted({s for s, _ in scaled_means}):
        for pilot, base in baseline_means.items():
            mean = scaled_means.get((scaler_id, pilot))
            if mean is not None and mean < base - SCALING_EPSILON:
                out.append(scaler_id)
                break
    return out


@dataclass
class ScalingStage:
    """Pair scalers with cheap pilot learners, and with the pool's best
    learner when it has no meta wrapper; expand a scaler to the whole
    catalog when it strictly improves some pilot."""

    stage_id: ClassVar[str] = "scaling"
    time_limit: float | None = None

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        pilots = {candidate_key(p): p for p in map(Candidate, PILOT_LEARNERS)}
        best = pool.best()
        if best is not None and best.candidate.meta is None:
            extra = Candidate(learner=best.candidate.learner, params=best.candidate.params)
            pilots.setdefault(candidate_key(extra), extra)

        # every pilot on raw data (scaler None) first, then under each scaler
        grid = [(s, k) for s in (None, *ctx.registry.scaler_ids()) for k in pilots]
        entries = ctx.try_add_many(pool, [replace(pilots[k], scaler=s) for s, k in grid], self.stage_id)
        means = {sk: entry.score.mean for sk, entry in zip(grid, entries) if entry is not None}
        baselines = {key: mean for (scaler_id, key), mean in means.items() if scaler_id is None}
        scaled_means = {sk: mean for sk, mean in means.items() if sk[0] is not None}
        expanded = scalers_to_expand(baselines, scaled_means)
        ctx.trace["expanded_scalers"] = expanded

        pilot_learner_ids = {p.learner for p in pilots.values()}
        others = [lid for lid in ctx.registry.base_learner_ids() if lid not in pilot_learner_ids]
        ctx.try_add_many(pool, [Candidate(learner=lid, scaler=s) for s in expanded for lid in others], self.stage_id)
        return pool


def feature_curve(
    score_at, schedule: Sequence[int], expired: Callable[[], bool] | None = None
) -> list[tuple[int, float]]:
    """Walk prefix lengths until scores worsen persistently.

    Advances while points stay within ``CURVE_TOL`` of the best seen;
    stops after ``CURVE_PATIENCE`` consecutive worse points (or once
    ``expired()`` is true). Returns the evaluated (length, score) points.
    """
    points: list[tuple[int, float]] = []
    best = float("inf")
    worse_streak = 0
    for l in schedule:
        if expired is not None and expired():
            break
        s = score_at(l)
        points.append((l, s))
        if s > best + CURVE_TOL:
            worse_streak += 1
            if worse_streak >= CURVE_PATIENCE:
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


def compute_feature_set(ctx: StageContext) -> tuple[FeatureSet, list[dict]]:
    """Choose a feature prefix from per-filter performance curves.

    For each filter ranking, the ``FILTER_PILOT`` learner is scored on
    growing prefixes under a cheap MCCV, the first ``CHEAP_REPEATS`` of the
    folds drawn once per evaluator; the best-scoring (filter, length) wins.
    Independent of the candidate pool. Falls back to all features when
    nothing could be evaluated.
    """
    data = ctx.data
    filter_ids = ctx.registry.filter_ids()
    if not filter_ids:
        raise ValueError("compute_feature_set needs at least one filter")
    pilot = Candidate(learner=FILTER_PILOT)
    schedule = prefix_schedule(data.n_columns)

    curves = []
    curve_traces = []
    for filter_id in filter_ids:
        if ctx.expired():
            break
        ranking = ctx.registry.rank_features(filter_id, data)

        def score_at(l: int, _ranking=ranking) -> float:
            c = replace(pilot, features=FeatureSet(_ranking[:l]))
            s = ctx.evaluator.evaluate(c, stage="filtering", repeats=CHEAP_REPEATS, deadline=ctx.deadline)
            return s.mean if s.ok else float("inf")

        points = feature_curve(score_at, schedule, expired=ctx.expired)
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

    stage_id: ClassVar[str] = "filtering"
    time_limit: float | None = None

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        features, curves = compute_feature_set(ctx)
        ctx.trace["feature_set"] = list(features)
        ctx.trace["curves"] = curves
        twin_features = None if len(features) == ctx.data.n_columns else features
        raw = [e.candidate for e in pool.sorted_by_score() if e.candidate.features is None]
        twins = [c.with_features(twin_features) for c in raw]
        ctx.try_add_many(pool, twins, self.stage_id)
        return pool


@dataclass
class MetaStage:
    """Wrap each candidate's learner in every registered meta-learner;
    feature slots are untouched."""

    stage_id: ClassVar[str] = "meta"
    time_limit: float | None = None

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        metas = ctx.registry.meta_learner_ids()
        wrapped = [
            entry.candidate.with_meta(meta_id)
            for entry in pool.sorted_by_score()
            if entry.candidate.meta is None
            for meta_id in metas
        ]
        ctx.try_add_many(pool, wrapped, self.stage_id)
        return pool


@dataclass
class TuningStage:
    """Random-search (or small-grid enumeration) over learner params,
    candidates visited best-first under per-candidate budgets.

    Each pool entry's samples come from ``Rng(derive_seed(seed, "tuning",
    key))`` (or its grid), never from scores, so the samples of all
    entries go to the evaluator as one batch. An entry's budget of
    ``per_candidate_seconds`` starts when its first sample is dispatched;
    a sample is added when it beats its entry."""

    stage_id: ClassVar[str] = "tuning"
    time_limit: float | None = None
    max_evals: int = 30
    per_candidate_seconds: float = 120.0

    def run(self, pool: CandidatePool, ctx: StageContext) -> CandidatePool:
        tuned, budgets, incumbents = [], [], []
        for entry in pool.sorted_by_score():
            samples = self._samples(entry, ctx)
            budget = Budget(ctx.deadline, self.per_candidate_seconds)
            tuned += [entry.candidate.with_params(params) for params in samples]
            budgets += [budget] * len(samples)
            incumbents += [entry.score.mean] * len(samples)
        ctx.try_add_many(pool, tuned, self.stage_id, budgets, accept=lambda i, score: score.mean < incumbents[i])
        return pool

    def _samples(self, entry: ScoredCandidate, ctx: StageContext) -> list[dict]:
        """At most ``max_evals`` parameter sets for ``entry``'s learner: its
        whole grid when that is small enough, else random draws; the
        entry's own parameterization is left out."""
        learner_id = entry.candidate.learner
        space = ctx.registry.learner(learner_id).param_space
        if not space:
            return []
        effective = ctx.registry.effective_params(learner_id, entry.candidate.params)
        if space_is_enumerable(space) and space_grid_size(space) <= self.max_evals:
            samples = list(enumerate_grid(space))
        else:
            rng = Rng(derive_seed(ctx.seed, "tuning", entry.key))
            samples = [ctx.registry.sample_params(learner_id, rng) for _ in range(self.max_evals)]
        return [params for params in samples if params != effective]


@dataclass
class ValidationStage:
    """Re-rank the m internally-best candidates by blending internal and
    single-shot holdout scores (``holdout_error``: refit on the
    optimization data, scored on the holdout); the output pool is
    terminal."""

    stage_id: ClassVar[str] = "validation"
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
                break
            try:
                seed = derive_seed(ctx.seed, "validate", entry.key)
                phi_val = holdout_error(entry.candidate, ctx.data, ctx.holdout, ctx.registry, seed, ctx.deadline)
            except Exception:
                if ctx.expired():
                    break  # the refit or the holdout predict ran out of stage time
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
